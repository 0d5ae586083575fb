"""Hyperparameter recovery by marginal-likelihood grid search.

Simulates returns at known (n, lambda), evaluates the exact log marginal
likelihood over a grid, and reports the argmax. With enough data the
grid maximizer lands on the generating values.

Run: python3 demos/demo_grid_search.py
"""

import numpy as np

from wishartsv.filtering import grid_search, simulate
from wishartsv.volproc import UEHyper

TRUE_N, TRUE_LAM, T, SEED = 6.0, 0.85, 1000, 42

ue = UEHyper(q=3, k=1, n=TRUE_N, lam=TRUE_LAM, d0=np.eye(3))
data, _ = simulate(ue, T, seed=SEED)

n_grid = [float(n) for n in range(3, 11)]
lam_grid = [round(0.70 + 0.025 * i, 3) for i in range(11)]
n_star, lam_star, surface = grid_search(data, np.eye(3), n_grid, lam_grid)

print(f"true (n, lambda) = ({TRUE_N}, {TRUE_LAM}); recovered = ({n_star}, {lam_star})")
print(f"loglik at argmax = {surface.max():.3f}")
print("surface (rows n, cols lambda), relative to the max:")
rel = surface - surface.max()
header = "      " + " ".join(f"{lam:7.3f}" for lam in lam_grid)
print(header)
for i, n in enumerate(n_grid):
    print(f"n={n:3g} " + " ".join(f"{rel[i, j]:7.1f}" for j in range(len(lam_grid))))
