"""Seeded input series for the benchmark workloads.

Everything here is plain numpy and independent of the package under
test: the benchmark feeds the program only the CSV files written below.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

PRESAMPLE_T = 250
BURN_IN = 300


def fx_returns(rng: np.random.Generator, q: int, T: int) -> np.ndarray:
    """Stationary-scale daily FX-like returns, shape (T, q).

    Each log-variance follows a mean-reverting AR(1) around a daily
    volatility of 0.4%-0.9%; correlations come from two factor loadings
    that drift as slow AR(1) processes around a fixed level.  The first
    ``BURN_IN`` steps are discarded so the series starts in its
    stationary law.
    """
    n = T + BURN_IN
    phi_h, sd_h = 0.98, 0.15
    mu = 2.0 * np.log(rng.uniform(0.004, 0.009, size=q))
    h = np.empty((n, q))
    h[0] = mu + rng.standard_normal(q) * sd_h / np.sqrt(1.0 - phi_h**2)
    eta = rng.standard_normal((n, q)) * sd_h
    for t in range(1, n):
        h[t] = mu + phi_h * (h[t - 1] - mu) + eta[t]

    phi_b, sd_b = 0.995, 0.02
    b0 = rng.normal(0.6, 0.3, size=(q, 2))
    z = rng.standard_normal((q, 2)) * sd_b / np.sqrt(1.0 - phi_b**2)
    eps = rng.standard_normal((n, q))
    out = np.empty((n, q))
    for t in range(n):
        z = phi_b * z + sd_b * rng.standard_normal((q, 2))
        b = b0 + z
        cov = b @ b.T + np.eye(q)
        s = np.sqrt(cov.diagonal())
        corr = cov / np.outer(s, s)
        out[t] = np.exp(0.5 * h[t]) * (np.linalg.cholesky(corr) @ eps[t])
    return out[BURN_IN:]


def ue_prior_law_returns(rng: np.random.Generator, q: int, n: float, lam: float, T: int) -> np.ndarray:
    """Returns drawn from the UE model's own law with k = 1 and D_0 = I.

    Phi_t ~ Wishart(n, (lam D_{t-1})^{-1}), r_t ~ N(0, Phi_t^{-1}),
    D_t = lam D_{t-1} + r_t r_t'.  With A the Bartlett factor of
    Wishart(n, I) and R the upper factor of D_{t-1}, r_t = sqrt(lam)
    R' A^{-1} z.  D_t is carried as its upper factor, refreshed by a QR of
    [sqrt(lam) R; r_t'], because cond(D_t) outgrows double precision.
    """
    r_fac = np.eye(q)
    out = np.empty((T, q))
    idx = np.arange(q)
    for t in range(T):
        a = np.triu(rng.standard_normal((q, q)), k=1)
        a[idx, idx] = np.sqrt(rng.chisquare(n - idx))
        w = np.sqrt(lam) * np.linalg.solve(a, rng.standard_normal(q))
        out[t] = r_fac.T @ w
        r_fac = np.linalg.qr(np.vstack([np.sqrt(lam) * r_fac, out[t]]), mode="r")
        r_fac *= np.sign(r_fac.diagonal())[:, None]
    return out


def write_returns_csv(path: Path, returns: np.ndarray) -> None:
    """Header, ISO date column, q columns; repr() round-trips every float."""
    days = np.datetime64("2001-01-01") + np.arange(returns.shape[0])
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date"] + [f"r{i + 1}" for i in range(returns.shape[1])])
        for day, row in zip(days.astype(str), returns):
            w.writerow([day] + [repr(float(x)) for x in row])
