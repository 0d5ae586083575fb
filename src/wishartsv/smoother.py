"""Backward sampling of full precision paths Phi_{0:T} | D_T.

Matched UE and BB share one forward filter and differ only here, in the
backward law.  The samplers read of a ``filtering.FilterOutput`` only
``hyper``, whose type is the model, ``g``, ``k_seq`` and ``discount``,
never its forecast densities.  ``backward_sample(filt, rng)`` draws one
path and ``sample_ensemble(filt, n_draws, seed)`` N of them; neither
takes the hyperparameters again, so the law sampled is always the one
the filter ran.

A path is its array of upper-triangular factors F_0..F_T, (T + 1, q, q),
with F_t' F_t = Phi_t and positive diagonal, and an ensemble of N paths
is one (N, T + 1, q, q) array.  Every step works on factors: with G_t the
filter's factor (G_t G_t' = D_t), a Wishart(df, D_t^{-1}) draw is
(W G_t^{-1})' (W G_t^{-1}) for W' W ~ Wishart(df, I).

The UE conditional is Phi_t = lambda Phi_{t+1} + Z_t with an independent
Wishart(1) increment Z_t, a rank-1 update of sqrt(lambda) F_{t+1}.  For BB
the backward step acts on Bartlett factors: re-express Phi_{t+1} in the
time-t coordinates, add a chi-square increment to each squared diagonal
entry, and map back.  Per backward step BB needs only q chi-square
draws; a full Wishart draw is required only at t = T.

Noise first: a sampler draws a path's noise before any arithmetic, in
the order a step-by-step loop would consume it (the terminal Bartlett
factor, then the increments for t = T-1 down to 0), and the steps
``ue_backward_step`` and ``bb_backward_step`` are deterministic given
that noise.  ``sample_ensemble`` runs all N paths, each with its own
(seed, index) substream, through one pass on stacked factors, which
checks G before and F after it.  Every solve against G is one
``tri_solve_stack``, and every G_t^{-1} comes from one ``tri_inverse``,
over all t and draws.  The BB pass (``_bb_chain``) has no loop over t:
its two recursions are linear, so each is summed by
recursive doubling, and its squared diagonal is carried in coordinates
whitened by G_t, where every term is of order 1.  One UE path is one chain
of Givens rotations on Python floats (``_ue_chain``) in the filter's layout,
on J F_t' J (J the reversal) and mapped back; a stack runs in coordinates
whitened by G_t (``_ue_whitened``): two small GEMMs per t for all draws,
then one stacked Cholesky.  All three passes take (G_0..G_T, W_T, noise,
discount), and each matches a loop of its step within 1e-12 per matrix.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParameter, NotPositiveDefinite
from .matops import _chain_rows, _fault_at, _fits_index, _givens_chain, _row_norms, tri_inverse, tri_solve_stack, uchol_components
from .randsamp import sample_bartlett_factor, sample_chi2, substream
from .volproc import UEHyper

if TYPE_CHECKING:  # filtering imports this module for simulate
    from .filtering import FilterOutput


def ue_backward_step(f_next: np.ndarray, g_t: np.ndarray, lam: float, z: np.ndarray) -> np.ndarray:
    """One UE backward draw of F_t (Phi_t = F_t' F_t) given F_{t+1}, G_t and noise z.

    z (..., q) is a row with z' z ~ Wishart(1, I).  The one-step case of ``_ue_whitened``,
    on the G stack [G_t, I] from F_{t+1}: chol(lam (F_{t+1} G_t)' (F_{t+1} G_t) + z' z) G_t^{-1}.
    """
    return _ue_whitened(np.stack([g_t, np.eye(g_t.shape[-1])]), f_next, z[None], lam)[0]


def bb_backward_step(f_next: np.ndarray, g_t: np.ndarray, b: float, theta: np.ndarray) -> np.ndarray:
    """One BB backward draw of F_t (Phi_t = F_t' F_t) given F_{t+1}, G_t and noise theta.

    U~*_{t+1} = sqrt(b) F_{t+1} G_t is upper-triangular with positive
    diagonal, so it is the Cholesky factor of b G_t' Phi_{t+1} G_t; its
    squared diagonal gains theta (..., q), theta_i ~ chi2_{(1-beta) k_t};
    off-diagonal entries are kept; F_t = U* G_t^{-1}.  The one-step case of
    ``_bb_chain``, on the G stack [G_t, I] from F_{t+1} (T calls round
    otherwise than one chain of T steps, within 1e-12); checks nothing: the
    backward pass checks G and F.
    """
    return _bb_chain(np.stack([g_t, np.eye(g_t.shape[-1])]), f_next, theta[None], b)[0]


def _discounted_sums(x: np.ndarray, a) -> np.ndarray:
    """y_t = x_t + a_t y_{t+1} along axis 0, last row x's, by recursive doubling (Kogge & Stone 1973).

    ``a`` is one coefficient, or the T per-step ones (T, ...) broadcasting
    against x's rows.  Per step, the running products a_t ... a_{t+d-1} are
    carried; with every a_t <= 1 none of them overflows.
    """
    per_step = np.ndim(a) > 0
    y, d, p = np.array(x, dtype=float), 1, a
    while d < len(y):
        y[:-d] += p * y[d:]  # now y_t sums the 2d terms (a_t ... a_{t+j-1}) x_{t+j}
        p = p[:-d] * p[d:] if per_step else a ** (2 * d)
        d *= 2
    return y


def _bb_chain(g: np.ndarray, w_T: np.ndarray, theta: np.ndarray, b: float) -> np.ndarray:
    """BB paths F_0..F_T from G_0..G_T, W_T (..., q, q) and theta (T, ..., q).

    F_T = W_T G_T^{-1}.  The step raises the diagonal of U~ = sqrt(b) F_{t+1} G_t
    from u~_i = a_{t,i} c_{t+1,ii} to u*_i = c_{t,ii}, with c_{t,ii} = f_{t,ii} g_{t,ii}
    and a_{t,i} = sqrt(b) g_{t,ii} / g_{t+1,ii}: c_{t,ii}^2 = theta_{t,i} + a_{t,i}^2
    c_{t+1,ii}^2 from c_T = diag(W_T), and F_t = sqrt(b) F_{t+1} + diag(delta_t) G_t^{-1},
    delta_t = theta_t / (u* + u~).  Both recursions are linear, each summed over all t
    by ``_discounted_sums``.  On a filter's path a <= 1, since a Givens rotation never
    shrinks a pivot below sqrt(b) times its old value, so every c^2 is of order 1 however
    far G ranges.  All work is per lane, so a stack of draws gives each draw's bits.
    """
    T, q, lead = g.shape[0] - 1, g.shape[-1], theta.shape[1:-1]  # lead: the draws axes
    f_T, w_diag = tri_solve_stack(g[T], w_T, trans=True), w_T.diagonal(0, -2, -1)
    if w_T.shape[:-2] != lead:  # bb_backward_step's F_{t+1} and theta may hold different draws axes
        lead = np.broadcast_shapes(lead, w_T.shape[:-2])
        f_T, w_diag = np.broadcast_to(f_T, lead + (q, q)), np.broadcast_to(w_diag, lead + (q,))
    g = g.reshape((T + 1,) + (1,) * len(lead) + (q, q))  # broadcast over the draws axes
    g_diag, sqrt_b = g.diagonal(0, -2, -1), math.sqrt(b)
    a = sqrt_b * g_diag[:T] / g_diag[1:]
    c = np.sqrt(_discounted_sums(np.concatenate([theta, w_diag[None] ** 2]), a * a))
    delta = theta / (c[:T] + a * c[1:])
    g_inv = tri_inverse(g[:T])
    f = _discounted_sums(np.concatenate([delta[..., None] * g_inv, f_T[None]]), sqrt_b)
    f[:T].reshape((T,) + lead + (q * q,))[..., :: q + 1] = c[:T] / g_diag[:T]
    return f


def _noise(filt: FilterOutput, rng: np.random.Generator):
    """One path's noise: the terminal Bartlett factor of Wishart(k_T, I), then per-step noise.

    UE draws T rows z ~ N(0, I), so z' z ~ Wishart(1, I) at every q; BB a
    T x q array of chi-square increments with df (1 - beta) k_t.  Both are
    drawn for t = T-1 down to 0 and returned in time order.
    """
    T, q = filt.g.shape[0] - 1, filt.g.shape[1]
    w_T = sample_bartlett_factor(q, filt.k_seq[T], rng)
    if isinstance(filt.hyper, UEHyper):
        return w_T, rng.standard_normal((T, q))[::-1]
    df = (1.0 - filt.hyper.beta) * filt.k_seq[:T][::-1, None]
    return w_T, sample_chi2(df, rng, size=(T, q))[::-1]


def _backward_pass(filt: FilterOutput, w_T: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """F_0..F_T from the terminal Bartlett factor(s) and per-step noise, time axis first.

    F_T = W_T G_T^{-1}, then F_t = step(F_{t+1}, G_t, discount, noise[t]): BB as
    ``_bb_chain``, UE as ``_ue_chain`` for one path (a (q, q) W_T) and ``_ue_whitened``
    for a stack, each called as (G_0..G_T, W_T, noise, discount).  G is checked before
    the pass, so no solve meets a zero pivot, and F after it, at the last bad t: the
    first the backward recursion meets.
    """
    g = filt.g
    _check_factors(g, "filter factor G")
    with np.errstate(all="ignore"):  # a non-finite F_t is reported below
        chain = _bb_chain
        if isinstance(filt.hyper, UEHyper):
            chain = _ue_chain if w_T.ndim == 2 else _ue_whitened
        f = chain(g, w_T, noise, filt.discount)
    _check_factors(f, "sampled factor F", last=True)
    return f


def _check_factors(x: np.ndarray, what: str, last: bool = False) -> None:
    """Raise at the first t (the last if ``last``) where a factor of x, time axis first from t = 0, is bad.

    A factor with a non-finite entry raises InvalidParameter, one with a
    diagonal entry <= 0 NotPositiveDefinite; at one t the non-finite
    entry is named first.  The no-fault path is one min over the
    diagonals (a NaN minimum fails it) and one ``isfinite``: a clean pass
    builds no array per fault and makes no ``_fault_at`` call.
    """
    diag = x.diagonal(0, -2, -1)
    if diag.min() > 0 and np.isfinite(x).all():
        return
    _fault_at((~np.isfinite(x), InvalidParameter, f"{what} is not finite"),
              (diag <= 0, NotPositiveDefinite, f"{what} has a diagonal entry <= 0"), t0=0, last=last)


def _ue_chain(g: np.ndarray, w_T: np.ndarray, z: np.ndarray, lam: float) -> np.ndarray:
    """One UE path from G_0..G_T, W_T and rows z (T, q): ``_givens_chain`` over x_t = z_t G_t^{-1}."""
    T = z.shape[0]
    f_T, x = tri_solve_stack(g[T], w_T, trans=True), tri_solve_stack(g[:T], z, trans=True)
    # the chain runs on H_t = J F_t' J (H_t H_t' = J Phi_t J, J the reversal) from H_T over rows J x_t
    rows = _chain_rows(x[::-1, ::-1].ravel().tolist(), x.shape[1])
    h = _givens_chain([tuple(f_T.T[::-1, ::-1].ravel().tolist())], rows, math.sqrt(lam))
    return h.transpose(0, 2, 1)[::-1, ::-1, ::-1].copy()


def _ue_whitened(g: np.ndarray, w_T: np.ndarray, z: np.ndarray, lam: float) -> np.ndarray:
    """UE paths from G_0..G_T, W_T (..., q, q) and rows z (T, ..., q), whitened by G_t.

    Psi_t = G_t' Phi_t G_t = lam A_t' Psi_{t+1} A_t + z_t' z_t from Psi_T = W_T' W_T,
    A_t = G_{t+1}^{-1} G_t.  Psi_t is Wishart(k_t, I)-like and ||sqrt(lam) A_t|| <= 1
    (D_{t+1} = lam D_t + r r'), so every term is of order 1 however ill-conditioned D_t
    is.  The draws' Psi_{t+1} is one (q, N, q) block: a step is two 2-D GEMMs into
    buffers made once, and an add.  Then F_t = chol(Psi_t) G_t^{-1}, and F_T = W_T G_T^{-1} exactly.
    """
    T, q, lead, n = g.shape[0] - 1, g.shape[-1], w_T.shape[:-2], math.prod(w_T.shape[:-2])
    w, z = w_T.reshape(n, q, q), z.reshape(T, n, q)
    a = math.sqrt(lam) * np.swapaxes(tri_solve_stack(g[1:, None], np.swapaxes(g[:-1], -1, -2)), -1, -2)  # G_{t+1} A_t = G_t
    psi = np.empty((T + 1, q, n * q))  # psi[t, i, d * q + j] is entry (i, j) of draw d's Psi_t
    np.multiply(np.swapaxes(z, 1, 2)[..., None], z[:, None], out=psi[:T].reshape(T, q, n, q))  # z_t' z_t
    psi[T] = np.swapaxes(np.swapaxes(w, 1, 2) @ w, 0, 1).reshape(q, n * q)
    # every view the loop reads is made once: psi_{t+1} as (q * N, q) rows, A_t', and the two products
    rows, a_trans = psi.reshape(T + 1, q * n, q), np.swapaxes(a, -1, -2)
    right, left = np.empty((q * n, q)), np.empty((q, n * q))  # Psi_{t+1} A_t, A_t' Psi_{t+1} A_t
    right_block = right.reshape(q, n * q)
    for psi_t, rows_next, a_t, a_t_trans in zip(psi[:T][::-1], rows[:0:-1], a[::-1], a_trans[::-1]):
        np.matmul(rows_next, a_t, out=right)
        np.matmul(a_t_trans, right_block, out=left)
        psi_t += left
    c = uchol_components(psi.reshape(T + 1, q, n, q).transpose(1, 3, 0, 2))
    del psi
    # F_t = C_t G_t^{-1}; draws first, as sample_ensemble returns them
    f = c.transpose(3, 2, 0, 1) @ tri_inverse(g)
    f[:, T] = tri_solve_stack(g[T], w, trans=True)  # every row of W_T
    return np.swapaxes(f, 0, 1).reshape((T + 1,) + lead + (q, q))


def backward_sample(filt: FilterOutput, rng: np.random.Generator) -> np.ndarray:
    """Draw Phi_{0:T} | D_T for the model ``filt.hyper`` states, as its factors F_0..F_T.

    The terminal draw from the filtered posterior Wishart(k_T, D_T^{-1})
    is taken in Bartlett-factor form, F_T = W G_T^{-1}.  UE then runs
    Phi_t = lambda Phi_{t+1} + Z_t, Z_t ~ Wishart(1, D_t^{-1}); BB its
    backward step, in closed form.
    """
    return _backward_pass(filt, *_noise(filt, rng))


def sample_ensemble(filt: FilterOutput, n_draws: int, seed: int) -> np.ndarray:
    """Independent backward draws with per-draw (seed, index) substreams.

    Draw i consumes substream (seed, i) exactly as ``backward_sample``
    would; all draws then run through one backward pass on stacks.  An
    ensemble no array can index raises InvalidParameter before any draw.
    """
    if n_draws < 1:
        raise InvalidParameter(f"n_draws must be >= 1, got {n_draws}")
    _fits_index(n_draws * filt.g.size, f"an ensemble of {n_draws} paths")
    w_T, noise = zip(*(_noise(filt, substream(seed, i)) for i in range(n_draws)))
    f = _backward_pass(filt, np.stack(w_T), np.stack(noise, axis=1))
    return np.ascontiguousarray(np.swapaxes(f, 0, 1))


def correlation_summary(factors: np.ndarray, quantiles) -> np.ndarray:
    """Per-time empirical quantiles of every implied correlation rho_ij, i < j.

    Over an ensemble of N >= 2 paths, ``factors`` (N, T + 1, q, q):
    Sigma_t = Phi_t^{-1} = V V' with V = F_t^{-1}, so rho_ij is the cosine
    between rows i and j of V, all from one ``tri_inverse``, which reads
    and writes only the upper triangle.  Row i's norm is the ``_row_norms``
    hypot fold over its own entries k >= i, so no square overflows or
    underflows: 2^k F gives the same bits as F.  The quantiles come from
    one sort over the draws (``_quantiles``).  Returns (len(quantiles),
    q (q - 1) / 2, T + 1), pairs in row-major order (0, 1), (0, 2), ...,
    (q - 2, q - 1).
    """
    if factors.shape[0] < 2:
        raise InvalidParameter("need at least 2 draws")
    quantiles = np.asarray(list(quantiles), dtype=float)
    if quantiles.size == 0 or not np.all((quantiles > 0) & (quantiles < 1)):
        raise InvalidParameter(f"quantiles must be nonempty levels in (0, 1), got {quantiles.tolist()}")
    q = factors.shape[-1]
    iu, ju = np.triu_indices(q, k=1)
    v = tri_inverse(factors)  # entries left of the diagonal are exact zeros
    for i in range(q):
        row = v[..., i, i:]
        row /= _row_norms(row)[..., None]
    v = np.ascontiguousarray(v)  # the einsum below rounds by memory layout
    rho = np.empty((factors.shape[0], iu.size, factors.shape[1]))
    for p, (i, j) in enumerate(zip(iu, ju)):
        rho[:, p] = np.einsum("ntk,ntk->nt", v[..., i, :], v[..., j, :])
    # |cosine| <= 1 exactly, so clipping only removes rounding excess
    return _quantiles(np.clip(rho, -1.0, 1.0, out=rho), quantiles)


def _quantiles(x: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``np.quantile(x, levels, axis=0)`` (its linear rule), bit for bit, from one sort of x along axis 0.

    x is sorted in place.  As numpy does: the virtual index is (N - 1) p,
    the result a + d gamma with d = b - a, or b - d (1 - gamma) where
    gamma >= 1/2; an index at or past N - 1 reads the last value; and a
    column holding NaN gives NaN.  Where +0 and -0 tie in a column the
    sign of a zero result may differ, since no sort orders equal values.
    """
    x.sort(axis=0)
    n = x.shape[0]
    virtual = (n - 1) * levels
    top = virtual >= n - 1
    lo = np.where(top, -1, np.floor(virtual)).astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    gamma = (virtual - lo).reshape((-1,) + (1,) * (x.ndim - 1))
    a, b = x[lo], x[hi]
    d = b - a
    out = a + d * gamma
    np.subtract(b, d * (1 - gamma), out=out, where=gamma >= 0.5)
    np.copyto(out, x[-1], where=np.isnan(x[-1]))
    return out
