"""Filtering and smoothing walkthrough.

Simulates a 3-dimensional return series from the UE model, runs the
matched UE and BB forward filters, confirms that their filtered
statistics and forecast densities agree exactly, then draws smoothed
precision-path ensembles from each backward sampler and prints time
quantiles of a smoothed correlation. The punchline: identical filters,
different smoothed posteriors.

Run: python3 demos/demo_filter_smooth.py
"""

import numpy as np

from wishartsv.cli import simulate
from wishartsv.filtering import bb_forward_filter, constrained_lambda, ue_forward_filter
from wishartsv.smoother import correlation_summary, sample_ensemble
from wishartsv.volproc import UEHyper, match_ue_to_bb

T, SEED, DRAWS = 300, 11, 200

# the constrained discount does not keep the simulated series
# well-conditioned: here the returns shrink about 150-fold over the horizon
# and cond(D_t) passes 1e4 (1e21 at T = 2000 with seed 1), which is why
# the filters and samplers carry triangular factors only
ue = UEHyper(q=3, k=1, n=8.0, lam=constrained_lambda(8.0, 1.0, 3), d0=np.eye(3))
bb = match_ue_to_bb(ue)
print(f"matched hyperparameters: k0={bb.k0}, beta={bb.beta:.6f}, b={bb.b}")

data, _ = simulate("ue", ue, T, seed=SEED)
filt_u = ue_forward_filter(data, ue)
filt_b = bb_forward_filter(data, bb)

gap = np.abs(filt_u.log_forecast - filt_b.log_forecast).max()
print(f"forward filters: max |log forecast gap| = {gap:.3e} (bit-equal D paths: "
      f"{np.array_equal(filt_u.g, filt_b.g)})")
print(f"log marginal likelihood: {filt_u.loglik:.3f}")

quantiles = (0.1, 0.5, 0.9)
for tag, filt, hyper in (("UE", filt_u, ue), ("BB", filt_b, bb)):
    ens = sample_ensemble(filt, hyper, DRAWS, seed=SEED + 1)
    curves = correlation_summary(ens, quantiles)[:, 0]  # pair (1, 2)
    mid = T // 2
    print(f"{tag} smoothed corr(1,2) at t={mid}: "
          + ", ".join(f"q{q:g}={curves[i, mid]:+.3f}" for i, q in enumerate(quantiles)))

print("identical filters, but the smoothed ensembles above come from "
      "different backward laws; their quantile bands generally differ.")
