"""Dense small-matrix primitives for SPD and upper-triangular matrices.

Factors are upper-triangular with positive diagonal.  A symmetric
positive-definite ``a`` factors as ``a = R' R`` (``R = uchol(a)``) in every
public function and the sampled paths; the filter stores D_t as G_t with
``G_t G_t' = D_t``, so that G_t^{-1} factors D_t^{-1} in R's layout.  The
Givens chain works in G's layout only: R' R = a is G G' = J a J for G =
J R' J, J the reversal.  Lower-triangular factors never appear.

``sym``, ``uchol``, ``gram``, ``tri_solve_stack`` and ``tri_inverse`` accept
a stack of matrices of shape (..., q, q), so one call serves one path or
every draw of an ensemble; ``uchol_components`` takes a stack
component-major.

Kernels compute; passes check.  No kernel tests for non-finite values:
each pass (the factor path, a backward pass, ``simulate``, a mixture
sweep) checks its input once and its output once, and ``_fault_at``
raises the package error naming the time step.  ``uchol`` rejects a non-finite matrix.  A zero pivot makes
``_givens_chain`` raise NotPositiveDefinite naming the factor's row (a
Python float division by zero would raise ZeroDivisionError), and the
factor path and ``simulate`` add their t, while ``tri_solve_stack`` and
``tri_inverse`` divide by 0 and ``uchol_components`` gives NaN, and the
calling pass reports the non-finite result with its t.

``tri_solve_stack`` is the one triangular solve: it back-substitutes
against one factor or a whole stack at once, so no pass solves per time
step.  A right solve m G^{-1} solves G' x = b with ``trans`` for each
row b of m.  ``tri_inverse`` is the one triangular inverse: it gives
every R^{-1} of a stack from the upper triangle alone, the bits of the
solve against the identity at a fraction of its work.

The one Givens loop on Python floats, a whole recursion of rank-1
updates with rho from ``math.hypot`` (a tenth of ``np.hypot``'s cost on
Python floats; inf on overflow), is generated per q by ``_chain_at`` as
straight-line source with every entry of G a local variable.
``_givens_chain`` keeps every factor, for the filter, ``simulate`` and
the single-path UE backward pass (a stack of UE paths is refactored
densely instead); ``_givens_pivots`` keeps only each G_t's pivots and the
last factor, all that ``filtering.grid_search`` reads.  Every caller
that feeds the chain an array of rows feeds it ``_chain_rows`` of the
array's flat list.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

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


def _fits_index(elements: int, what: str) -> None:
    """Raise InvalidParameter when ``what`` needs more array elements than an index reaches, before it is made."""
    if elements > np.iinfo(np.intp).max:
        raise InvalidParameter(f"{what} needs {elements} array elements, more than an array can index")


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
    gives the same bits as solving it alone.  The output is allocated
    once, from the first solved row's shape, and each row is written into
    ``x[..., i]`` and read back from there: at q = 2 a list and
    ``np.stack`` cost more than the solve.  A zero pivot or a non-finite
    entry gives a non-finite x.
    """
    q, x = r.shape[-1], None
    for i in range(q) if trans else reversed(range(q)):
        acc = b[..., i]
        for j in range(i) if trans else range(i + 1, q):
            acc = acc - (r[..., j, i] if trans else r[..., i, j]) * x[..., j]
        acc = acc / r[..., i, i]
        if x is None:
            x = np.empty(acc.shape + (q,), acc.dtype)
        x[..., i] = acc
    return x


def tri_inverse(r: np.ndarray) -> np.ndarray:
    """R^{-1} for every upper-triangular R of a stack (..., q, q) with a positive diagonal.

    Row i forward-substitutes over its own entries k >= i only, each a
    numpy operation on the whole stack, with the entries held
    component-major; returns a (..., q, q) view of that array.  The bits
    are ``tri_solve_stack(r[..., None, :, :], np.eye(q), trans=True)``'s,
    whose entries left of the diagonal are exact zeros.  A zero or NaN
    pivot, or a non-finite entry above the diagonal, gives a non-finite
    entry in its own matrix only.
    """
    q, lead = r.shape[-1], tuple(range(r.ndim - 2))
    rc, v = r.transpose((r.ndim - 2, r.ndim - 1) + lead), np.zeros(r.shape[-2:] + r.shape[:-2])
    for i in range(q):
        v[i, i] = 1.0 / rc[i, i]
        for k in range(i + 1, q):
            acc = 0.0 - rc[i, k] * v[i, i]
            for j in range(i + 1, k):
                acc = acc - rc[j, k] * v[i, j]
            v[i, k] = acc / rc[k, k]
    return v.transpose(tuple(i + 2 for i in lead) + (0, 1))


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
def _chain_at(q: int, pivots: bool = False):
    """The Givens loop at dimension q, generated from q alone and compiled on first use.

    Straight-line code with every entry of G and of x a local variable,
    called as chain(g0, out, xs, scale) with G_0 the row-major tuple g0.  For
    i = q-1 down to 0 it rotates g_ii against x_i, then g_ji against x_j for
    j = i-1 down to 0.  Each step appends its factor to ``out`` as one
    row-major tuple, or with ``pivots`` extends the flat list ``out`` by its
    diagonal, the q new pivots; the last factor is returned as a row-major tuple.
    """
    g = [[f"g{i}_{j}" for j in range(q)] for i in range(q)]
    x = [f"x{j}" for j in range(q)]
    flat = ", ".join(e for row in g for e in row)
    lines = [
        "def chain(g0, out, xs, scale, hypot=hypot, error=error):",
        f"    {flat}, = g0",
        f"    add = out.{'extend' if pivots else 'append'}",
        f"    for {', '.join(x)}, in xs:",
    ]
    for i in reversed(range(q)):
        lines += [
            f"        gii = scale * {g[i][i]}",
            f"        rho = hypot(gii, {x[i]})",
            "        if rho <= 0.0:",
            f"            raise error('zero pivot in rank-1 update at row {i}')",
        ]
        if i:  # column 0 has no entry above its pivot to rotate
            lines += ["        c = gii / rho", f"        s = {x[i]} / rho"]
        lines.append(f"        {g[i][i]} = rho")
        for j in reversed(range(i)):
            lines += [
                f"        gj = scale * {g[j][i]}",
                f"        {g[j][i]} = c * gj + s * {x[j]}",
                f"        {x[j]} = c * {x[j]} - s * gj",
            ]
    appended = ", ".join(g[i][i] for i in range(q)) if pivots else flat
    lines += [f"        add(({appended},))", f"    return ({flat},)"]
    namespace = {"hypot": math.hypot, "error": NotPositiveDefinite}
    exec("\n".join(lines) + "\n", namespace)
    return namespace["chain"]


def _givens_chain(out: list, xs, scale: float) -> np.ndarray:
    """All factors of G_{i+1} G_{i+1}' = scale^2 G_i G_i' + x_i x_i', on Python floats.

    ``out`` holds G_0 as one row-major tuple of q * q floats; each G_{i+1} is
    appended as another, and the list is returned as an array of shape
    (len(out), q, q).  Each x in ``xs``, q floats, is rotated into the factor
    by Givens rotations, rho from ``math.hypot``, column i scaled just before
    its rotation, which rounds as scaling G first would.  The strict lower
    triangle of G_0 is carried unchanged.  The loop is ``_chain_at(q)``: at
    q <= 5 an index or a numpy call costs more than the arithmetic.  ``xs``
    may be a generator that reads the latest factor, ``out[-1]``, before it
    yields the next x (``simulate``); the x rows are not written to.  Raises
    NotPositiveDefinite on a zero pivot, naming the factor's row.
    """
    q = math.isqrt(len(out[-1]))
    _chain_at(q)(out[-1], out, xs, scale)
    return np.fromiter(itertools.chain.from_iterable(out), float, len(out) * q * q).reshape(-1, q, q)


def _chain_rows(flat: list, q: int):
    """The x feed of a Givens chain: the rows of the row-major list ``flat``, as q-tuples.

    One ``tolist`` of a raveled array and a ``zip`` of one iterator q times
    cost less than a list per row, and the zip is cheap to make again for
    each run of the chain over the same rows.
    """
    return zip(*[iter(flat)] * q)


def _givens_pivots(g0: tuple, xs, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals of ``_givens_chain``'s factors, bit for bit, and its last factor.

    Runs the same rotations from G_0, the row-major tuple ``g0``: returns
    (pivots, last), pivots[i] the diagonal of G_i, one row per x and one for
    G_0, from one flat list of every pivot and one ``np.fromiter``, and last
    the final factor, (q, q).  No entry is checked for
    finiteness; raises NotPositiveDefinite on a zero pivot, as ``_givens_chain`` does.
    """
    q = math.isqrt(len(g0))
    out = list(g0[:: q + 1])
    last = _chain_at(q, True)(g0, out, xs, scale)
    return np.fromiter(out, float, len(out)).reshape(-1, q), np.reshape(last, (q, q))
