"""Backward sampling of full precision paths Phi_{0:T} | D_T.

Paths are stored as upper-triangular factors F_t with F_t' F_t = Phi_t
and positive diagonal, and every step works on factors: with G_t the
filter's factor (G_t G_t' = k D_t), a Wishart(df, (k D_t)^{-1}) draw is
(W G_t^{-1})' (W G_t^{-1}) for W' W ~ Wishart(df, I).

The UE conditional is Phi_t = lambda Phi_{t+1} + Z_t with an independent
Wishart increment Z_t, a rank-k update of sqrt(lambda) F_{t+1}.  For BB
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
(seed, index) substream of noise, through one backward pass, and
``joint_consistency_report`` runs the same steps on its stacked draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .filtering import FilterOutput
from .matops import chol_update, gram, inv_upper, rchol, right_solve
from .randsamp import (
    sample_bartlett_factor,
    sample_chi2,
    sample_wishart_bartlett,
    sample_wishart_factor,
    substream,
)
from .volproc import BBHyper, UEHyper, bb_evolve, ue_evolve


@dataclass(frozen=True)
class PrecisionPath:
    """One sampled path Phi_0..Phi_T (length T + 1), as upper factors F_t' F_t = Phi_t."""

    model: str
    factors: np.ndarray  # (T+1, q, q)
    seed_info: tuple[int, int] | None = None  # (seed, draw_index) when ensemble-drawn

    @property
    def T(self) -> int:
        return self.factors.shape[0] - 1

    @property
    def q(self) -> int:
        return self.factors.shape[1]


@dataclass(frozen=True)
class SmoothedEnsemble:
    """N sampled precision paths with a per-path log-likelihood cache."""

    model: str
    paths: list
    logliks: np.ndarray | None = None

    @property
    def n_draws(self) -> int:
        return len(self.paths)


def ue_backward_step(f_next: np.ndarray, g_t: np.ndarray, lam: float, z: np.ndarray) -> np.ndarray:
    """One UE backward draw of F_t (Phi_t = F_t' F_t) given F_{t+1}, G_t and noise z.

    z = W with W' W ~ Wishart(k, I), shape (..., rows, q); the increment
    Z_t = (W G_t^{-1})' (W G_t^{-1}) is added to lam Phi_{t+1} by one
    rank-1 factor update per row of W G_t^{-1}.
    """
    f_t = np.sqrt(lam) * f_next
    x = right_solve(z, g_t)
    for j in range(x.shape[-2]):
        f_t = chol_update(f_t, x[..., j, :])
    return f_t


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
    """Terminal Bartlett factor of Wishart(n + k, I), then the T increment factors W."""
    T, q = filt.g.shape[0] - 1, filt.g.shape[1]
    w_T = sample_bartlett_factor(q, ue.n + ue.k, rng)
    return w_T, sample_wishart_factor(q, ue.k, rng, size=T)[::-1]


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


def ue_backward_sample(filt: FilterOutput, ue: UEHyper, rng: np.random.Generator) -> PrecisionPath:
    """Draw Phi_{0:T} | D_T for UE.

    Terminal draw from the filtered posterior Wishart(n + k, (k D_T)^{-1});
    then Phi_t = lambda Phi_{t+1} + Z_t, Z_t ~ Wishart(k, (k D_t)^{-1}),
    one ``ue_backward_step`` per t.
    """
    if filt.model != "ue":
        raise InvalidParameter(f"expected a UE filter output, got {filt.model!r}")
    return PrecisionPath(model="ue", factors=_backward_pass(filt, *_ue_noise(filt, ue, rng)))


def bb_backward_sample(filt: FilterOutput, bb: BBHyper, rng: np.random.Generator) -> PrecisionPath:
    """Draw Phi_{0:T} | D_T for BB.

    The terminal Wishart(k_T, (k D_T)^{-1}) draw is taken directly in
    Bartlett-factor form, F_T = U G_T^{-1}; each earlier factor is one
    ``bb_backward_step``.
    """
    if filt.model != "bb":
        raise InvalidParameter(f"expected a BB filter output, got {filt.model!r}")
    return PrecisionPath(model="bb", factors=_backward_pass(filt, *_bb_noise(filt, bb, rng)))


def sample_ensemble(filt: FilterOutput, hyper, n_draws: int, seed: int) -> SmoothedEnsemble:
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
    f = np.ascontiguousarray(np.swapaxes(f, 0, 1))
    paths = [PrecisionPath(model=filt.model, factors=f[i], seed_info=(seed, i)) for i in range(n_draws)]
    return SmoothedEnsemble(model=filt.model, paths=paths)


def joint_consistency_report(
    model: str,
    hyper,
    d_t: np.ndarray,
    k_t: float,
    n_draws: int,
    rng: np.random.Generator,
    backward_model: str | None = None,
) -> dict:
    """Two-sample moment comparison validating the backward conditionals.

    Path A samples (Phi_t, Phi_{t+1}) forward: Phi_t from the filtered
    posterior Wishart(k_t, (k D_t)^{-1}), then one evolution step.
    Path B samples Phi_{t+1} from the one-step prior and applies the
    backward conditional.  Both joints target p(Phi_t, Phi_{t+1} | D_t),
    so all moments must agree; ``backward_model`` lets path B use the
    *other* process to expose the non-equivalence of the conditionals.

    Returns z-statistic grids for first moments of both slices, second
    moments of both slices, and the entrywise cross moments
    E[(Phi_t)_ij (Phi_{t+1})_ij].
    """
    backward_model = backward_model or model
    if model == "ue":
        k_obs, disc, beta, df_prior = hyper.k, hyper.lam, hyper.n / (hyper.n + hyper.k), hyper.n
    else:
        k_obs, disc, beta, df_prior = hyper.k, hyper.b, hyper.beta, hyper.beta * k_t
    q = d_t.shape[0]
    g_t = np.sqrt(k_obs) * rchol(d_t)  # G_t G_t' = k D_t, as the filter builds it
    p_t = inv_upper(g_t)  # P_t' P_t = (k D_t)^{-1}

    # forward join: Phi_t | D_t, then one evolution step
    at = sample_wishart_bartlett(k_t, p_t, rng, size=n_draws)
    anext = ue_evolve(at, hyper, rng) if model == "ue" else bb_evolve(at, k_t, hyper, rng, p_prev=p_t)

    # backward join: Phi_{t+1} from the one-step prior (under matching the
    # UE and BB priors coincide), then one backward step
    f_next = right_solve(sample_wishart_factor(q, df_prior, rng, size=n_draws), g_t) / np.sqrt(disc)
    if backward_model == "ue":
        f_t = ue_backward_step(f_next, g_t, disc, sample_wishart_factor(q, k_obs, rng, size=n_draws))
    else:
        f_t = bb_backward_step(f_next, g_t, disc, sample_chi2((1.0 - beta) * k_t, rng, size=(n_draws, q)))
    bnext, bt = gram(f_next), gram(f_t)

    def zstat(xa, xb):
        ma, mb = xa.mean(axis=0), xb.mean(axis=0)
        va, vb = xa.var(axis=0, ddof=1), xb.var(axis=0, ddof=1)
        denom = np.sqrt(va / xa.shape[0] + vb / xb.shape[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(denom > 0, (ma - mb) / denom, 0.0)
        return z

    return {
        "z_mean_t": zstat(at, bt),
        "z_mean_next": zstat(anext, bnext),
        "z_second_t": zstat(at**2, bt**2),
        "z_second_next": zstat(anext**2, bnext**2),
        "z_cross": zstat(at * anext, bt * bnext),
        "n_draws": n_draws,
    }


def correlation_summary(ens: SmoothedEnsemble, quantiles) -> np.ndarray:
    """Per-time empirical quantiles of every implied correlation rho_ij, i < j.

    Sigma_t = Phi_t^{-1} = V V' with V = F_t^{-1}, so rho_ij is the cosine
    between rows i and j of V: one triangular inverse per draw and time.
    Returns (len(quantiles), q (q - 1) / 2, T + 1), pairs in row-major
    order (0, 1), (0, 2), ..., (q - 2, q - 1).
    """
    if ens.n_draws < 2:
        raise InvalidParameter("need at least 2 draws")
    quantiles = np.asarray(list(quantiles), dtype=float)
    if np.any((quantiles <= 0) | (quantiles >= 1)):
        raise InvalidParameter("quantiles must lie in (0, 1)")
    q = ens.paths[0].q
    iu, ju = np.triu_indices(q, k=1)
    rho = np.empty((ens.n_draws, iu.size, ens.paths[0].T + 1))
    for d_idx, path in enumerate(ens.paths):
        # F is upper-triangular with a nonzero diagonal, so the pivoted LU
        # inside solve never swaps rows: this is back-substitution
        v = np.linalg.solve(path.factors, np.eye(q))
        v /= np.linalg.norm(v, axis=2, keepdims=True)
        rho[d_idx] = np.einsum("tpk,tpk->pt", v[:, iu], v[:, ju])
    # |cosine| <= 1 exactly, so clipping only removes rounding excess
    return np.quantile(np.clip(rho, -1.0, 1.0), quantiles, axis=0)
