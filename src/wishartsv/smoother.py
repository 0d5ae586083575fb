"""Backward sampling of full precision paths Phi_{0:T} | D_T.

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
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter
from .filtering import FilterOutput
from .matops import chol_update, right_solve
from .randsamp import sample_bartlett_factor, sample_chi2, sample_wishart_factor, substream
from .volproc import BBHyper, UEHyper


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
    off-diagonal entries are kept; F_t = U* G_t^{-1}.
    """
    u = np.sqrt(b) * f_next @ g_t
    idx = np.arange(g_t.shape[0])
    u[..., idx, idx] = np.sqrt(u[..., idx, idx] ** 2 + theta)
    return right_solve(u, g_t)


def _ue_noise(filt: FilterOutput, ue: UEHyper, rng: np.random.Generator):
    """Terminal Bartlett factor of Wishart(n + 1, I), then the T x q increment rows z."""
    T, q = filt.g.shape[0] - 1, filt.g.shape[1]
    w_T = sample_bartlett_factor(q, ue.n + ue.k, rng)
    # the one row of a Wishart(1, I) factor: N(0, I) at q >= 2, sqrt(chi2_1) at q = 1
    return w_T, sample_wishart_factor(q, 1, rng, size=T)[::-1, 0]


def _bb_noise(filt: FilterOutput, bb: BBHyper, rng: np.random.Generator):
    """Terminal Bartlett factor of Wishart(k_T, I), then the T x q chi-square increments."""
    T, q = filt.g.shape[0] - 1, filt.g.shape[1]
    w_T = sample_bartlett_factor(q, filt.k_seq[T], rng)
    df = (1.0 - bb.beta) * filt.k_seq[:T][::-1, None]
    return w_T, sample_chi2(df, rng, size=(T, q))[::-1]


# per model: its backward step and the noise one path consumes
_MODELS = {"ue": (ue_backward_step, _ue_noise), "bb": (bb_backward_step, _bb_noise)}


def _backward_pass(filt: FilterOutput, w_T: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """F_0..F_T from the terminal Bartlett factor(s) and per-step noise, time axis first.

    F_T = W_T G_T^{-1}, then F_t = step(F_{t+1}, G_t, discount, noise[t]).
    """
    step = _MODELS[filt.model][0]
    T = filt.g.shape[0] - 1
    f = np.empty((T + 1,) + w_T.shape)
    f[T] = right_solve(w_T, filt.g[T])
    for t in range(T - 1, -1, -1):
        f[t] = step(f[t + 1], filt.g[t], filt.discount, noise[t])
    return f


def ue_backward_sample(filt: FilterOutput, ue: UEHyper, rng: np.random.Generator) -> np.ndarray:
    """Draw Phi_{0:T} | D_T for UE, as its factors F_0..F_T.

    Terminal draw from the filtered posterior Wishart(n + 1, D_T^{-1});
    then Phi_t = lambda Phi_{t+1} + Z_t, Z_t ~ Wishart(1, D_t^{-1}),
    one ``ue_backward_step`` per t.
    """
    if filt.model != "ue":
        raise InvalidParameter(f"expected a UE filter output, got {filt.model!r}")
    return _backward_pass(filt, *_ue_noise(filt, ue, rng))


def bb_backward_sample(filt: FilterOutput, bb: BBHyper, rng: np.random.Generator) -> np.ndarray:
    """Draw Phi_{0:T} | D_T for BB, as its factors F_0..F_T.

    The terminal Wishart(k_T, D_T^{-1}) draw is taken directly in
    Bartlett-factor form, F_T = U G_T^{-1}; each earlier factor is one
    ``bb_backward_step``.
    """
    if filt.model != "bb":
        raise InvalidParameter(f"expected a BB filter output, got {filt.model!r}")
    return _backward_pass(filt, *_bb_noise(filt, bb, rng))


def sample_ensemble(filt: FilterOutput, hyper, n_draws: int, seed: int) -> np.ndarray:
    """Independent backward draws with per-draw (seed, index) substreams.

    Draw i consumes substream (seed, i) exactly as
    ``ue_backward_sample`` or ``bb_backward_sample`` would; all draws
    then run through one backward pass on (N, q, q) stacks.
    """
    if n_draws < 1:
        raise InvalidParameter(f"n_draws must be >= 1, got {n_draws}")
    noise_of = _MODELS[filt.model][1]
    w_T, noise = zip(*(noise_of(filt, hyper, substream(seed, i)) for i in range(n_draws)))
    f = _backward_pass(filt, np.stack(w_T), np.stack(noise, axis=1))
    return np.ascontiguousarray(np.swapaxes(f, 0, 1))


def correlation_summary(factors: np.ndarray, quantiles) -> np.ndarray:
    """Per-time empirical quantiles of every implied correlation rho_ij, i < j.

    Over an ensemble of N >= 2 paths, ``factors`` (N, T + 1, q, q):
    Sigma_t = Phi_t^{-1} = V V' with V = F_t^{-1}, so rho_ij is the cosine
    between rows i and j of V: one triangular inverse per draw and time.
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
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    rho = np.empty((factors.shape[0], iu.size, factors.shape[1]))
    for p, (i, j) in enumerate(zip(iu, ju)):
        rho[:, p] = np.einsum("ntk,ntk->nt", v[..., i, :], v[..., j, :])
    # |cosine| <= 1 exactly, so clipping only removes rounding excess
    return np.quantile(np.clip(rho, -1.0, 1.0), quantiles, axis=0)
