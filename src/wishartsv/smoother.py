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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InvalidParameter
from .filtering import FilterOutput
from .matops import chol_update, inv_upper, sym, uchol
from .randsamp import (
    _gram,
    sample_bartlett_factor,
    sample_chi2,
    sample_matrix_beta,
    sample_wishart_bartlett,
    sample_wishart_factor,
    substream,
    sym_batch,
    uchol_batch,
)
from .volproc import BBHyper, UEHyper


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


def _right_solve(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """m G^{-1} for upper-triangular G, by a triangular solve."""
    return solve_triangular(g, m.T, trans="T", lower=False).T


def ue_backward_sample(filt: FilterOutput, ue: UEHyper, rng: np.random.Generator) -> PrecisionPath:
    """Draw Phi_{0:T} | D_T for UE.

    Terminal draw from the filtered posterior Wishart(n + k, (k D_T)^{-1});
    then Phi_t = lambda Phi_{t+1} + Z_t, Z_t ~ Wishart(k, (k D_t)^{-1}),
    one rank-1 factor update per row of Z_t's factor W G_t^{-1}.
    """
    if filt.model != "ue":
        raise InvalidParameter(f"expected a UE filter output, got {filt.model!r}")
    T, q = filt.g.shape[0] - 1, filt.g.shape[1]
    f = np.empty((T + 1, q, q))
    f[T] = _right_solve(sample_bartlett_factor(q, ue.n + ue.k, rng), filt.g[T])
    sqrt_lam = np.sqrt(ue.lam)
    for t in range(T - 1, -1, -1):
        f_t = sqrt_lam * f[t + 1]
        for x in _right_solve(sample_wishart_factor(q, ue.k, rng), filt.g[t]):
            f_t = chol_update(f_t, x)
        f[t] = f_t
    return PrecisionPath(model="ue", factors=f)


def bb_backward_step(
    f_next: np.ndarray,
    g_t: np.ndarray,
    beta: float,
    b: float,
    k_t: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One BB backward draw of F_t (Phi_t = F_t' F_t) given F_{t+1} and G_t.

    U~*_{t+1} = sqrt(b) F_{t+1} G_t is upper-triangular with positive
    diagonal, so it is the Cholesky factor of b G_t' Phi_{t+1} G_t; its
    squared diagonal gains theta_i ~ chi2_{(1-beta) k_t}; off-diagonal
    entries are kept; F_t = U* G_t^{-1}.
    """
    df = (1.0 - beta) * k_t
    if df <= 0:
        raise InvalidParameter(f"(1 - beta) * k_t must be > 0, got {df}")
    q = g_t.shape[0]
    u = np.sqrt(b) * f_next @ g_t
    idx = np.arange(q)
    u[idx, idx] = np.sqrt(u[idx, idx] ** 2 + sample_chi2(df, rng, size=q))
    return _right_solve(u, g_t)


def bb_backward_sample(filt: FilterOutput, bb: BBHyper, rng: np.random.Generator) -> PrecisionPath:
    """Draw Phi_{0:T} | D_T for BB.

    The terminal Wishart(k_T, (k D_T)^{-1}) draw is taken directly in
    Bartlett-factor form, F_T = U G_T^{-1}; each earlier factor is one
    ``bb_backward_step``.
    """
    if filt.model != "bb":
        raise InvalidParameter(f"expected a BB filter output, got {filt.model!r}")
    T, q = filt.g.shape[0] - 1, filt.g.shape[1]
    f = np.empty((T + 1, q, q))
    f[T] = _right_solve(sample_bartlett_factor(q, filt.k_seq[T], rng), filt.g[T])
    for t in range(T - 1, -1, -1):
        f[t] = bb_backward_step(f[t + 1], filt.g[t], bb.beta, bb.b, filt.k_seq[t], rng)
    return PrecisionPath(model="bb", factors=f)


def sample_ensemble(filt: FilterOutput, hyper, n_draws: int, seed: int) -> SmoothedEnsemble:
    """Independent backward draws with per-draw (seed, index) substreams."""
    if n_draws < 1:
        raise InvalidParameter(f"n_draws must be >= 1, got {n_draws}")
    sampler = ue_backward_sample if filt.model == "ue" else bb_backward_sample
    paths = [replace(sampler(filt, hyper, substream(seed, i)), seed_info=(seed, i)) for i in range(n_draws)]
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
        ue, bb = hyper, None
        k_obs, disc, beta = ue.k, ue.lam, ue.n / (ue.n + ue.k)
        n_eff, k_eff = ue.n, ue.k
    else:
        bb, ue = hyper, None
        k_obs, disc, beta = bb.k, bb.b, bb.beta
        n_eff, k_eff = bb.beta * bb.k0, bb.k
    q = d_t.shape[0]
    rinv = inv_upper(uchol(np.asarray(d_t, dtype=float)))
    p_t = uchol(sym(rinv @ rinv.T) / k_obs)  # uchol((k D_t)^{-1})
    idx = np.arange(q)

    # forward join: Phi_t | D_t, then one evolution step
    if model == "ue":
        at = sample_wishart_bartlett(k_t, p_t, rng, size=n_draws)
        m = uchol_batch(at)
        psi = sample_matrix_beta(q, n_eff, k_eff, rng, size=n_draws)
        anext = sym_batch(np.swapaxes(m, -1, -2) @ psi @ m) / disc
    else:
        u = sample_bartlett_factor(q, k_t, rng, size=n_draws)
        at = _gram(u @ p_t)
        shapes_a = (beta * k_t - idx) / 2.0  # (beta*k_t - i + 1)/2, 1-based i
        if np.any(shapes_a <= 0):
            raise InvalidParameter("nonpositive Beta shape in BB evolution")
        eta = rng.beta(shapes_a, (1.0 - beta) * k_t / 2.0, size=(n_draws, q))
        u_tilde = u.copy()
        u_tilde[:, idx, idx] = np.sqrt(eta) * u[:, idx, idx]
        anext = _gram(u_tilde @ p_t) / disc

    # backward join: Phi_{t+1} from the one-step prior, then the backward
    # conditional (under matching the UE and BB priors coincide)
    df_prior = n_eff if model == "ue" else beta * k_t
    bnext = sample_wishart_bartlett(df_prior, p_t / np.sqrt(disc), rng, size=n_draws)
    if backward_model == "ue":
        z = sample_wishart_bartlett(k_obs, p_t, rng, size=n_draws)
        bt = disc * bnext + z
    else:
        df_theta = (1.0 - beta) * k_t
        if df_theta <= 0:
            raise InvalidParameter("(1 - beta) * k_t must be > 0")
        p_inv = inv_upper(p_t)
        u_tilde = uchol_batch(disc * np.swapaxes(p_inv, -1, -2) @ bnext @ p_inv)
        theta = rng.gamma(shape=df_theta / 2.0, scale=2.0, size=(n_draws, q))
        u_star = u_tilde.copy()
        u_star[:, idx, idx] = np.sqrt(u_tilde[:, idx, idx] ** 2 + theta)
        bt = _gram(u_star @ p_t)

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
