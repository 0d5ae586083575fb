"""Dense small-matrix primitives for SPD and upper-triangular matrices.

Factors are upper-triangular with positive diagonal, in two layouts.  A
symmetric positive-definite ``a`` factors as ``a = R' R`` (``R =
uchol(a)``) in every public function, the sampled paths and ``simulate``;
the filter stores D_t as G_t with ``G_t G_t' = D_t``, so that G_t^{-1}
factors D_t^{-1} in R's layout.  Lower-triangular factors never appear.

``sym``, ``uchol``, ``gram`` and ``tri_solve_stack`` accept a stack of
matrices of shape (..., q, q), so one call serves one path or every draw
of an ensemble; ``uchol_components`` takes a stack component-major.

Kernels compute; passes check.  No kernel tests for non-finite values:
each pass (the factor path, a backward pass, ``simulate``, a mixture
sweep) checks its input once and its output once, and ``_fault_at``
raises the package error naming the time step.  ``uchol`` rejects a non-finite matrix.  A zero pivot makes
``_givens_chain`` raise NotPositiveDefinite naming the factor's row (a
Python float division by zero would raise ZeroDivisionError), and the
factor path adds its t, while ``tri_solve_stack`` divides by 0 and
``uchol_components`` gives NaN, and the calling pass reports the
non-finite result with its t.

``tri_solve_stack`` is the one triangular solve: it back-substitutes
against one factor or a whole stack at once, so no pass solves per time
step.  A right solve m G^{-1} solves G' x = b with ``trans`` for each
row b of m.

The one Givens loop on Python floats, a whole recursion of rank-1
updates with rho from ``math.hypot`` (a tenth of ``np.hypot``'s cost on
Python floats; inf on overflow), is generated per q by ``_chain_at`` as
straight-line source with every entry of the factor a local variable,
in either layout.  ``_givens_chain`` keeps every factor: the filter's in
G's layout, the single-path UE backward pass's and ``simulate``'s in R's
(a stack of UE paths is refactored densely instead).  ``_givens_pivots``
keeps only each G_t's pivots and the last factor, all that
``filtering.grid_search`` reads.
"""

from __future__ import annotations

import functools
import itertools
import math

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


@functools.cache
def _chain_at(q: int, pivots: bool = False, outer: bool = False):
    """The Givens loop at dimension q, generated from q alone and compiled on first use.

    Straight-line code with every entry of R and of x a local variable,
    called as chain(r0, out, xs, scale) with R_0 the row-major tuple r0.
    Each step appends its factor to ``out`` as one row-major tuple, or with
    ``pivots`` only its diagonal, the q new pivots; the last factor is
    returned as a row-major tuple.  With ``outer`` the factor is G, G G' =
    R' R with R = J G' J (J the reversal), so G[a][b] is R[q-1-b][q-1-a] and
    x_j the input's entry q-1-j: only names move, so every bit stays.
    """
    r = [[f"r{i}_{j}" for j in range(q)] for i in range(q)]
    x = [f"x{j}" for j in range(q)]
    stored = [[r[q - 1 - b][q - 1 - a] for b in range(q)] for a in range(q)] if outer else r
    flat = ", ".join(e for row in stored for e in row)
    lines = [
        "def chain(r0, out, xs, scale, hypot=hypot, error=error):",
        f"    {flat}, = r0",
        "    append = out.append",
        f"    for {', '.join(x[::-1] if outer else x)}, in xs:",
    ]
    for i in range(q):
        lines += [
            f"        rii = scale * {r[i][i]}",
            f"        rho = hypot(rii, {x[i]})",
            "        if rho <= 0.0:",
            f"            raise error('zero pivot in rank-1 update at row {q - 1 - i if outer else i}')",
        ]
        if i + 1 < q:  # the last row has no entry right of its pivot to rotate
            lines += ["        c = rii / rho", f"        s = {x[i]} / rho"]
        lines.append(f"        {r[i][i]} = rho")
        for j in range(i + 1, q):
            lines += [
                f"        rj = scale * {r[i][j]}",
                f"        {r[i][j]} = c * rj + s * {x[j]}",
                f"        {x[j]} = c * {x[j]} - s * rj",
            ]
    appended = ", ".join(stored[i][i] for i in range(q)) if pivots else flat
    lines += [f"        append(({appended},))", f"    return ({flat},)"]
    namespace = {"hypot": math.hypot, "error": NotPositiveDefinite}
    exec("\n".join(lines) + "\n", namespace)
    return namespace["chain"]


def _givens_chain(out: list, xs, scale: float, outer: bool = False) -> np.ndarray:
    """All factors of R_{i+1}' R_{i+1} = scale^2 R_i' R_i + x_i x_i', on Python floats.

    ``out`` holds R_0 as one row-major tuple of q * q floats; each R_{i+1}
    is appended as another, and the list is returned as an array of shape
    (len(out), q, q).  Each x in ``xs``, q floats, is rotated into the
    factor by Givens rotations, rho from ``math.hypot``, row i scaled
    just before its rotation, which rounds as scaling R first would.  The
    strict lower triangle of R_0 is carried unchanged.  The loop is
    ``_chain_at(q)``: at q <= 5 an index or a numpy call costs more than
    the arithmetic.  With ``outer`` every factor is G in G's layout,
    G_{i+1} G_{i+1}' = scale^2 G_i G_i' + x_i x_i'.  ``xs`` may be a
    generator that reads the latest factor, ``out[-1]``, before it yields
    the next x (``simulate``); the x rows are not written to.  Raises
    NotPositiveDefinite on a zero pivot, naming the factor's row.
    """
    q = math.isqrt(len(out[-1]))
    _chain_at(q, False, outer)(out[-1], out, xs, scale)
    return np.fromiter(itertools.chain.from_iterable(out), float, len(out) * q * q).reshape(-1, q, q)


def _givens_pivots(g0: tuple, xs, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals of ``_givens_chain``'s factors in G's layout, bit for bit, and its last factor.

    Runs the same rotations from G_0, the row-major tuple ``g0``: returns
    (pivots, last), pivots[i] the diagonal of G_i, one row per x and one for
    G_0, and last the final factor, (q, q).  No entry is checked for
    finiteness; raises NotPositiveDefinite on a zero pivot, as ``_givens_chain`` does.
    """
    q = math.isqrt(len(g0))
    out = [g0[:: q + 1]]
    last = _chain_at(q, True, True)(g0, out, xs, scale)
    pivots = np.fromiter(itertools.chain.from_iterable(out), float, len(out) * q).reshape(-1, q)
    return pivots, np.reshape(last, (q, q))
