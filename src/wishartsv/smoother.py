"""Backward sampling of full precision paths Phi_{0:T} | D_T.

Matched UE and BB share one forward filter and differ only here, in the
backward law.  The model is the type of the filter output's ``hyper``:
``backward_sample(filt, rng)`` draws one path and
``sample_ensemble(filt, n_draws, seed)`` N of them, and neither takes
the hyperparameters again, so the law sampled is always the one the
filter ran.

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
that noise.  Both steps take a leading draws axis, (N, q, q) factors
sharing G_t, so ``sample_ensemble`` runs all N paths, each with its own
(seed, index) substream of noise, through one backward pass.

The steps compute and the pass checks: G once before its loop and F
once after it, so a path leaves the pass as finite factors with a
positive diagonal or as a package error naming the first bad t.

One UE path does not step at all: its rows x_t = z_t G_t^{-1} do not
depend on F, so after solving for all of them the pass runs
Phi_t = lambda Phi_{t+1} + x_t' x_t as the filter runs its scale
recursion, one chain of Givens rotations on Python floats
(``matops._givens_chain``), with the same bits as the step-by-step loop.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameter, NotPositiveDefinite
from .filtering import FilterOutput
from .matops import _givens_chain, chol_update, right_solve, tri_solve
from .randsamp import sample_bartlett_factor, sample_chi2, sample_wishart_factor, substream
from .volproc import UEHyper


def ue_backward_step(f_next: np.ndarray, g_t: np.ndarray, lam: float, z: np.ndarray) -> np.ndarray:
    """One UE backward draw of F_t (Phi_t = F_t' F_t) given F_{t+1}, G_t and noise z.

    z is a row, shape (..., q), with z' z ~ Wishart(1, I); the increment
    Z_t = x' x with x = z G_t^{-1} is added to lam Phi_{t+1} by one
    rank-1 factor update.
    """
    return chol_update(np.sqrt(lam) * f_next, right_solve(z, g_t))


def bb_backward_step(f_next: np.ndarray, g_t: np.ndarray, b: float, theta: np.ndarray) -> np.ndarray:
    """One BB backward draw of F_t (Phi_t = F_t' F_t) given F_{t+1}, G_t and noise theta.

    U~*_{t+1} = sqrt(b) F_{t+1} G_t is upper-triangular with positive
    diagonal, so it is the Cholesky factor of b G_t' Phi_{t+1} G_t; its
    squared diagonal gains theta (..., q), theta_i ~ chi2_{(1-beta) k_t};
    off-diagonal entries are kept; F_t = U* G_t^{-1}.  Checks nothing:
    the backward pass checks G before its loop and F after it.
    """
    u = math.sqrt(b) * f_next @ g_t
    q = g_t.shape[0]
    diag = u.reshape(u.shape[:-2] + (q * q,))[..., :: q + 1]  # a view of u's diagonal
    diag[...] = np.sqrt(diag ** 2 + theta)
    return right_solve(u, g_t)


def _noise(filt: FilterOutput, rng: np.random.Generator):
    """One path's noise: the terminal Bartlett factor of Wishart(k_T, I), then per-step noise.

    UE draws T rows z of Wishart(1, I) factors, BB a T x q array of
    chi-square increments with df (1 - beta) k_t; both are drawn for
    t = T-1 down to 0 and returned in time order.
    """
    T, q = filt.g.shape[0] - 1, filt.g.shape[1]
    w_T = sample_bartlett_factor(q, filt.k_seq[T], rng)
    if isinstance(filt.hyper, UEHyper):
        # the one row of a Wishart(1, I) factor: N(0, I) at q >= 2, sqrt(chi2_1) at q = 1
        return w_T, sample_wishart_factor(q, 1, rng, size=T)[::-1, 0]
    df = (1.0 - filt.hyper.beta) * filt.k_seq[:T][::-1, None]
    return w_T, sample_chi2(df, rng, size=(T, q))[::-1]


def _backward_pass(filt: FilterOutput, w_T: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """F_0..F_T from the terminal Bartlett factor(s) and per-step noise, time axis first.

    F_T = W_T G_T^{-1}, then F_t = step(F_{t+1}, G_t, discount, noise[t]).
    One UE path, a single (q, q) W_T, runs as ``_ue_chain``; every other
    pass makes one step call per t.  ``_check_factors`` checks G before
    the loop, so no solve meets a zero pivot, and F after it.
    """
    g = filt.g
    _check_factors(g, "filter factor G")
    T = g.shape[0] - 1
    with np.errstate(all="ignore"):  # a non-finite F_t is reported below
        f_T = right_solve(w_T, g[T])
        ue = isinstance(filt.hyper, UEHyper)
        if ue and w_T.ndim == 2:
            f = _ue_chain(g, f_T, noise, filt.discount)
        else:
            f = np.empty((T + 1,) + w_T.shape)
            f[T] = f_T
            step = ue_backward_step if ue else bb_backward_step
            for t in range(T - 1, -1, -1):
                f[t] = step(f[t + 1], g[t], filt.discount, noise[t])
    _check_factors(f, "sampled factor F", backward=True)
    return f


def _check_factors(a: np.ndarray, what: str, backward: bool = False) -> None:
    """Raise at the first bad a[t], time axis first, that a pass meets (the last if ``backward``).

    InvalidParameter if a[t] is not finite, NotPositiveDefinite if a diagonal entry is <= 0.
    """
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    if np.isfinite(a).all() and diag.min() > 0:  # the common case, in two reductions
        return
    finite = np.isfinite(a).reshape(a.shape[0], -1).all(axis=1)
    bad = np.flatnonzero(~(finite & (diag > 0).reshape(a.shape[0], -1).all(axis=1)))
    t = int(bad[-1] if backward else bad[0])
    if not finite[t]:
        raise InvalidParameter(f"{what} is not finite at t={t}")
    raise NotPositiveDefinite(f"{what} has a diagonal entry <= 0 at t={t}")


def _ue_chain(g: np.ndarray, f_T: np.ndarray, z: np.ndarray, lam: float) -> np.ndarray:
    """One UE path, as the rank-1 recursion Phi_t = lam Phi_{t+1} + x_t' x_t.

    The rows x_t = z_t G_t^{-1} do not depend on F, so all T are solved
    first; then ``_givens_chain`` runs the rotations of ``ue_backward_step``
    from F_T down to F_0 on Python floats.  Each result is the same bits
    as the step's.
    """
    T, q = g.shape[0] - 1, g.shape[1]
    x = np.empty((T, q))
    for t in range(T):
        x[t] = tri_solve(g[t], z[t], trans=True)
    flat = _givens_chain(f_T.tolist(), x[::-1].tolist(), math.sqrt(lam))
    return np.frombuffer(flat).reshape(T + 1, q, q)[::-1].copy()


def backward_sample(filt: FilterOutput, rng: np.random.Generator) -> np.ndarray:
    """Draw Phi_{0:T} | D_T for the model ``filt.hyper`` states, as its factors F_0..F_T.

    The terminal draw from the filtered posterior Wishart(k_T, D_T^{-1})
    is taken in Bartlett-factor form, F_T = W G_T^{-1}.  UE then runs
    Phi_t = lambda Phi_{t+1} + Z_t, Z_t ~ Wishart(1, D_t^{-1}), one
    ``ue_backward_step`` per t; BB makes one ``bb_backward_step`` per t.
    """
    return _backward_pass(filt, *_noise(filt, rng))


def sample_ensemble(filt: FilterOutput, n_draws: int, seed: int) -> np.ndarray:
    """Independent backward draws with per-draw (seed, index) substreams.

    Draw i consumes substream (seed, i) exactly as ``backward_sample``
    would; all draws then run through one backward pass on (N, q, q)
    stacks.
    """
    if n_draws < 1:
        raise InvalidParameter(f"n_draws must be >= 1, got {n_draws}")
    w_T, noise = zip(*(_noise(filt, substream(seed, i)) for i in range(n_draws)))
    f = _backward_pass(filt, np.stack(w_T), np.stack(noise, axis=1))
    return np.ascontiguousarray(np.swapaxes(f, 0, 1))


def correlation_summary(factors: np.ndarray, quantiles) -> np.ndarray:
    """Per-time empirical quantiles of every implied correlation rho_ij, i < j.

    Over an ensemble of N >= 2 paths, ``factors`` (N, T + 1, q, q):
    Sigma_t = Phi_t^{-1} = V V' with V = F_t^{-1}, so rho_ij is the cosine
    between rows i and j of V: one triangular inverse per draw and time.
    Each row is scaled by a power of two before its norm, so the norm
    neither overflows nor underflows: 2^k F gives the same bits as F.
    Returns (len(quantiles), q (q - 1) / 2, T + 1), pairs in row-major
    order (0, 1), (0, 2), ..., (q - 2, q - 1).
    """
    if factors.shape[0] < 2:
        raise InvalidParameter("need at least 2 draws")
    quantiles = np.asarray(list(quantiles), dtype=float)
    if quantiles.size == 0 or not np.all((quantiles > 0) & (quantiles < 1)):
        raise InvalidParameter(f"quantiles must be nonempty levels in (0, 1), got {quantiles.tolist()}")
    iu, ju = np.triu_indices(factors.shape[-1], k=1)
    # F is upper-triangular with a nonzero diagonal, so the pivoted LU
    # inside solve never swaps rows: this is back-substitution
    v = np.linalg.solve(factors, np.eye(factors.shape[-1]))
    v = np.ldexp(v, -np.frexp(np.abs(v).max(axis=-1, keepdims=True))[1])
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    rho = np.empty((factors.shape[0], iu.size, factors.shape[1]))
    for p, (i, j) in enumerate(zip(iu, ju)):
        rho[:, p] = np.einsum("ntk,ntk->nt", v[..., i, :], v[..., j, :])
    # |cosine| <= 1 exactly, so clipping only removes rounding excess
    return np.quantile(np.clip(rho, -1.0, 1.0), quantiles, axis=0)
