"""Dense small-matrix primitives for SPD and upper-triangular matrices.

Convention used throughout the package: a symmetric positive-definite
matrix ``a`` factors as ``a = R' R`` with ``R`` upper-triangular and
positive diagonal (``R = uchol(a)``).  Lower-triangular factors never
appear in the public surface.

``sym``, ``uchol``, ``gram`` and ``tri_solve_stack`` accept a stack of
matrices of shape (..., q, q), so one call serves one path or every draw
of an ensemble; ``uchol_components`` takes a stack component-major.

Kernels compute; passes check.  No kernel tests for non-finite values:
each pass (the factor path, a backward pass, ``simulate``, a mixture
sweep) checks its input once and its output once, and ``_fault_at``
raises the package error naming the time step.  ``uchol`` rejects a non-finite matrix.  A zero pivot makes
``_givens_chain`` raise NotPositiveDefinite (a Python float division by
zero would raise ZeroDivisionError), while ``tri_solve_stack`` divides
by 0 and ``uchol_components`` gives NaN, and the calling pass reports the
non-finite result with its t.

``tri_solve_stack`` is the one triangular solve: it back-substitutes
against one factor or a whole stack at once, so no pass solves per time
step.  A right solve m G^{-1} solves G' x = b with ``trans`` for each
row b of m.

The one Givens loop on Python floats is ``_givens_chain``: a whole
recursion of rank-1 updates on a factor held as one flat row-major list,
with rho from ``math.hypot`` (a tenth of ``np.hypot``'s cost on Python
floats; inf on overflow) and no function call per step.  The filter's
factor path, the single-path UE backward pass and ``simulate`` all run
through it; a stack of UE paths is refactored densely instead.
"""

from __future__ import annotations

import functools
import math
from array import array

import numpy as np

from .errors import NotPositiveDefinite

# Relative pivot tolerance for positive-definiteness checks.  Rank-1
# observation matrices y_t = r r' are singular by design and are never
# passed through uchol; only filtered scales and precisions are.
PIVOT_RTOL = 1e-12


def sym(a: np.ndarray) -> np.ndarray:
    """Re-symmetrize ``(a + a') / 2``; cheap guard against fp asymmetry."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def gram(m: np.ndarray) -> np.ndarray:
    """m' m, re-symmetrized."""
    return sym(np.swapaxes(m, -1, -2) @ m)


def uchol(a: np.ndarray) -> np.ndarray:
    """Upper-triangular Cholesky factor R with R' R = a, per matrix.

    Raises NotPositiveDefinite on a non-finite entry, on a non-square or
    asymmetric input (|a - a'| above 1e-8 * max(max|a|, 1)), and when a
    pivot falls at or below ``PIVOT_RTOL * max(diag(a))`` of its own matrix.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():  # NaN passes the symmetry and pivot tests
        raise NotPositiveDefinite("matrix has a non-finite entry")
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise NotPositiveDefinite(f"expected square matrices, got shape {a.shape}")
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1)) > 1e-8 * scale):
        raise NotPositiveDefinite("matrix is not symmetric")
    try:
        lower = np.linalg.cholesky(sym(a))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    r = np.swapaxes(lower, -1, -2)
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    pivot_floor = PIVOT_RTOL * np.maximum(diag.max(axis=-1), 0.0)
    if np.any(np.diagonal(r, axis1=-2, axis2=-1) ** 2 <= pivot_floor[..., None]):
        raise NotPositiveDefinite("pivot below tolerance")
    return r


def _fault_at(*faults, t0: int = 1, last: bool = False) -> None:
    """Raise at the first t a pass meets where a fault holds (the last t if ``last``).

    Each fault is (bad, error, what): ``bad`` a boolean array, time axis
    first (row i is t = t0 + i), its other axes reduced with any.  Raises
    ``error(f"{what} at t={t}")``; at one t the earlier fault is named.
    """
    if not any(bad.any() for bad, _, _ in faults):
        return
    rows = [bad.reshape(len(bad), -1).any(axis=1) for bad, _, _ in faults]
    hits = np.flatnonzero(np.logical_or.reduce(rows))
    i = int(hits[-1] if last else hits[0])
    _, error, what = next(fault for fault, row in zip(faults, rows) if row[i])
    raise error(f"{what} at t={t0 + i}")


def _row_norms(x: np.ndarray) -> np.ndarray:
    """|x[..., i, :]| for each row, an ``np.hypot`` fold over the columns: no square over- or underflows."""
    return functools.reduce(np.hypot, [x[..., j] for j in range(x.shape[-1])], 0.0)


def tri_solve_stack(r: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """x with R x = b (R' x = b with ``trans``) for every upper-triangular R of a stack.

    r (..., q, q) and b (..., q) broadcast; returns (..., q).  Each row of
    the substitution is a numpy operation on the whole stack, so a slice
    gives the same bits as solving it alone.  A zero pivot or a
    non-finite entry gives a non-finite x.
    """
    q = r.shape[-1]
    x = [None] * q
    for i in range(q) if trans else reversed(range(q)):
        acc = b[..., i]
        for j in range(i) if trans else range(i + 1, q):
            acc = acc - (r[..., j, i] if trans else r[..., i, j]) * x[j]
        x[i] = acc / r[..., i, i]
    return np.stack(x, axis=-1)


def uchol_components(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factors R (R' R = A) of a stack held component-major, a[i, j] (i <= j read).

    Returns r in the same layout.  Each step is one numpy operation on the whole
    stack, so a slice gives the bits of its matrix factored alone.  A pivot that
    is not positive gives NaN in its own matrix only, with no warning or error.
    """
    q, r = a.shape[0], np.zeros(a.shape)
    for i in range(q):
        for j in range(i, q):
            acc = a[i, j]
            for k in range(i):
                acc = acc - r[k, i] * r[k, j]
            r[i, j] = np.sqrt(np.where(acc > 0, acc, np.nan)) if j == i else acc / r[i, i]
    return r


def _givens_chain(flat: array, xs, scale: float) -> array:
    """All factors of R_{i+1}' R_{i+1} = scale^2 R_i' R_i + x_i x_i', on Python floats.

    ``flat`` holds R_0 row-major, gets each R_{i+1} appended and is returned.
    Each x in ``xs``, a list of q floats, is rotated into the factor (one
    flat list) and overwritten: Givens rotations, rho from
    ``math.hypot``, row i scaled just before its rotation, which rounds as
    scaling R first would.  ``xs`` may be a generator that reads the latest
    factor, ``flat[-q * q:]``, before it yields the next x (``simulate``).
    Raises NotPositiveDefinite on a zero pivot.
    """
    q = math.isqrt(len(flat))
    r, hypot = flat[-q * q :].tolist(), math.hypot
    rows = [(i, i * (q + 1), range(i + 1, q)) for i in range(q)]  # i, where R[i, i] is, j > i
    for x in xs:
        for i, k, cols in rows:
            rii, xi = scale * r[k], x[i]
            rho = hypot(rii, xi)
            if rho <= 0.0:
                raise NotPositiveDefinite(f"zero pivot in rank-1 update at row {i}")
            c, s = rii / rho, xi / rho
            r[k] = rho
            for j in cols:
                k += 1  # where R[i, j] is
                rj, xj = scale * r[k], x[j]
                r[k] = c * rj + s * xj
                x[j] = c * xj - s * rj
        flat.extend(r)
    return flat
