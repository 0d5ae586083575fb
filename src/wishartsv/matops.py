"""Dense small-matrix primitives for SPD and upper-triangular matrices.

Convention used throughout the package: a symmetric positive-definite
matrix ``a`` factors as ``a = R' R`` with ``R`` upper-triangular and
positive diagonal (``R = uchol(a)``).  Lower-triangular factors never
appear in the public surface.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NotPositiveDefinite, SingularMatrix

# Relative pivot tolerance for positive-definiteness checks.  Rank-1
# observation matrices y_t = r r' are singular by design and are never
# passed through uchol; only filtered scales and precisions are.
PIVOT_RTOL = 1e-12


def sym(a: np.ndarray) -> np.ndarray:
    """Re-symmetrize ``(a + a') / 2``; cheap guard against fp asymmetry."""
    return 0.5 * (a + a.T)


def check_symmetric(a: np.ndarray, rtol: float = 1e-8) -> None:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotPositiveDefinite(f"expected a square matrix, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > rtol * scale:
        raise NotPositiveDefinite("matrix is not symmetric")


def uchol(a: np.ndarray) -> np.ndarray:
    """Upper-triangular Cholesky factor R with R' R = a.

    Raises NotPositiveDefinite when a pivot falls at or below
    ``PIVOT_RTOL * max(diag(a))``.
    """
    a = np.asarray(a, dtype=float)
    check_symmetric(a)
    try:
        lower = np.linalg.cholesky(sym(a))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    r = lower.T
    pivot_floor = PIVOT_RTOL * max(a.diagonal().max(), 0.0)
    if np.any(r.diagonal() ** 2 <= pivot_floor):
        raise NotPositiveDefinite("pivot below tolerance")
    return r


def inv_upper(r: np.ndarray) -> np.ndarray:
    """Invert an upper-triangular matrix by back-substitution."""
    r = np.asarray(r, dtype=float)
    q = r.shape[0]
    d = np.abs(r.diagonal())
    if d.min() < 1e-14 * max(d.max(), 0.0) or d.min() == 0.0:
        raise SingularMatrix("diagonal entry effectively zero")
    return solve_triangular(r, np.eye(q), lower=False)


def quad_form(x: np.ndarray, a: np.ndarray) -> float:
    """x' a^{-1} x via a triangular solve against uchol(a)."""
    x = np.asarray(x, dtype=float)
    r = uchol(a)
    w = solve_triangular(r, x, trans="T", lower=False)
    return float(w @ w)


def logdet_spd(a: np.ndarray) -> float:
    """log det of an SPD matrix, from its Cholesky diagonal."""
    return 2.0 * float(np.sum(np.log(uchol(a).diagonal())))


def chol_update(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of R' R + x x' by Givens-style rank-1 update.

    Works directly on the factor, so it stays accurate for matrices far
    too ill-conditioned to refactor densely (the discounted scale
    recursion D_t = lam D_{t-1} + r_t r_t' produces exactly those over
    long horizons).
    """
    r = np.array(r, dtype=float)
    x = np.array(x, dtype=float)
    q = r.shape[0]
    for i in range(q):
        rho = float(np.hypot(r[i, i], x[i]))
        if rho <= 0.0:
            raise NotPositiveDefinite(f"zero pivot in rank-1 update at row {i}")
        c = r[i, i] / rho
        s = x[i] / rho
        r[i, i] = rho
        if i + 1 < q:
            row = r[i, i + 1 :].copy()
            r[i, i + 1 :] = c * row + s * x[i + 1 :]
            x[i + 1 :] = c * x[i + 1 :] - s * row
    return r

