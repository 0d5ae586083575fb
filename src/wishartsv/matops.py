"""Dense small-matrix primitives for SPD and upper-triangular matrices.

Convention used throughout the package: a symmetric positive-definite
matrix ``a`` factors as ``a = R' R`` with ``R`` upper-triangular and
positive diagonal (``R = uchol(a)``).  Lower-triangular factors never
appear in the public surface.

``sym``, ``uchol``, ``gram``, ``right_solve`` and ``chol_update`` accept
a stack of matrices of shape (..., q, q), so one call serves one path or
every draw of an ensemble.

Kernels compute; passes check.  No kernel tests for non-finite values:
each pass (the scale pass, a backward pass, ``simulate``, a mixture
sweep) checks its input once and its output once, and raises a package
error naming the time step.  ``uchol`` rejects a non-finite matrix.  A
zero pivot makes ``tri_solve`` raise LinAlgError and ``_givens_update``
NotPositiveDefinite (a Python float division by zero would raise
ZeroDivisionError), while ``chol_update`` divides 0 by 0 and returns a
NaN factor, which the calling pass reports with its t.

``tri_solve`` is the one triangular solve of a single factor.  It
makes the LAPACK ``trtrs`` call ``scipy.linalg.solve_triangular`` makes,
without that wrapper's per-call validation overhead, so results are the
same bits.  The filter's scale pass makes no per-step solve: it solves
against all T factors at once after its loop.

The Givens loop of the rank-1 update runs on Python floats in
``_givens_update``: once per step in ``simulate``, and along a whole
recursion in ``_givens_chain`` (the filter's scale pass and the
single-path UE backward pass).  ``chol_update`` makes the same
rotations on a stack of matrices at once.
"""

from __future__ import annotations

from array import array

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dtrtrs

from .errors import InvalidParameter, NotPositiveDefinite

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


def check_symmetric(a: np.ndarray, rtol: float = 1e-8) -> None:
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise NotPositiveDefinite(f"expected square matrices, got shape {a.shape}")
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1)) > rtol * scale):
        raise NotPositiveDefinite("matrix is not symmetric")


def uchol(a: np.ndarray) -> np.ndarray:
    """Upper-triangular Cholesky factor R with R' R = a, per matrix.

    Raises NotPositiveDefinite on a non-finite entry, and when a pivot
    falls at or below ``PIVOT_RTOL * max(diag(a))`` of its own matrix.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():  # NaN passes the symmetry and pivot tests
        raise NotPositiveDefinite("matrix has a non-finite entry")
    check_symmetric(a)
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


def rchol(a: np.ndarray) -> np.ndarray:
    """Upper-triangular G with G G' = a: J uchol(J a J)' J, J the reversal."""
    return uchol(np.asarray(a, dtype=float)[::-1, ::-1]).T[::-1, ::-1]


def _require_finite(a: np.ndarray, what: str) -> None:
    """InvalidParameter unless every entry of ``a`` is finite."""
    if not np.isfinite(a).all():
        raise InvalidParameter(f"{what} is not finite")


def tri_solve(r: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """x with R x = b (R' x = b with ``trans``), R upper-triangular (q, q) float array.

    b is (q,) or (q, m).  As in ``scipy.linalg.solve_triangular``, a
    C-ordered R goes to LAPACK as the F-ordered R' with the triangle and
    the transpose flipped.  Raises LinAlgError on a zero pivot; a
    non-finite R or b gives a non-finite x, which the calling pass checks.
    """
    if r.flags.f_contiguous:
        x, info = dtrtrs(r, b, lower=0, trans=int(trans))
    else:
        x, info = dtrtrs(r.T, b, lower=1, trans=int(not trans))
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def right_solve(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """m G^{-1} for upper-triangular G, by one ``tri_solve``; m and G are float arrays.

    Every row of every matrix in a stack m (..., rows, q) is a right-hand side.
    """
    return tri_solve(g, m.reshape(-1, m.shape[-1]).T, trans=True).T.reshape(m.shape)


def chol_update(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of R' R + x x' by Givens-style rank-1 update.

    Works directly on the factor, so it stays accurate for matrices far
    too ill-conditioned to refactor densely (the discounted scale
    recursion D_t = lam D_{t-1} + r_t r_t' produces exactly those over
    long horizons).  A stack r (..., q, q) with x (..., q) applies the
    same rotations to every matrix at once, so a slice of a stack and
    the matrix alone give the same bits; the result keeps r's memory
    order.  The rotations are those of ``_givens_update``: both take rho
    from ``np.hypot`` (``math.hypot`` rounds differently) and round every
    product and sum alike.  A zero pivot gives NaN entries, not an error.
    """
    r = np.array(r, dtype=float)
    x = np.array(x, dtype=float)
    q = r.shape[-1]
    for i in range(q):
        rho = np.hypot(r[..., i, i], x[..., i])
        c = (r[..., i, i] / rho)[..., None]
        s = (x[..., i] / rho)[..., None]
        r[..., i, i] = rho
        if i + 1 < q:
            row = r[..., i, i + 1 :].copy()
            r[..., i, i + 1 :] = c * row + s * x[..., i + 1 :]
            x[..., i + 1 :] = c * x[..., i + 1 :] - s * row
    return r


def _givens_update(rows: list, x: list, scale: float) -> None:
    """``chol_update`` of scale * R, with R held as a list of rows of Python floats.

    Rotates x into the upper-triangular ``rows`` in place, so they become
    the factor of scale^2 R' R + x x'; x is overwritten.  Row i is scaled
    just before its rotation, which rounds as scaling R first would.
    """
    q = len(rows)
    for i in range(q):
        row = rows[i]
        rii = scale * row[i]
        rho = float(np.hypot(rii, x[i]))
        if rho <= 0.0:
            raise NotPositiveDefinite(f"zero pivot in rank-1 update at row {i}")
        c = rii / rho
        s = x[i] / rho
        row[i] = rho
        for j in range(i + 1, q):
            rj, xj = scale * row[j], x[j]
            row[j] = c * rj + s * xj
            x[j] = c * xj - s * rj


def _givens_chain(rows: list, xs, scale: float) -> array:
    """All factors of R_{i+1}' R_{i+1} = scale^2 R_i' R_i + x_i x_i', on Python floats.

    ``rows`` holds R_0 as a list of rows and each x in ``xs`` is a list
    of q floats; one ``_givens_update`` per x advances ``rows`` in
    place.  Returns R_0, R_1, ..., R_len(xs), row-major, in one flat
    buffer, so a caller reshapes them once.
    """
    flat = array("d")
    for row in rows:
        flat.extend(row)
    for x in xs:
        _givens_update(rows, x, scale)
        for row in rows:
            flat.extend(row)
    return flat
