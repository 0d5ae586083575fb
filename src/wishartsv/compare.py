"""Model comparison given smoothed ensembles.

When two models share a marginal likelihood, Bayes factors carry no
information; the tools here are the ones that still discriminate:
log posterior likelihood ratio via log-sum-exp, the missing-data
mixture Gibbs sampler over the model indicator, posterior predictive
interval checks, and batch-means standard errors for chain output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import t as student_t

from .errors import DimensionMismatch, EmptyEnsemble, InvalidParameter
from .filtering import (
    FilterOutput,
    ReturnsSeries,
    bb_forward_filter,
    ue_forward_filter,
)
from .randsamp import make_rng, sample_mvnormal_prec
from .smoother import PrecisionPath, SmoothedEnsemble, bb_backward_sample, ue_backward_sample
from .volproc import BBHyper, UEHyper

LOG_2PI = np.log(2.0 * np.pi)


def _gauss_terms(factors: np.ndarray, returns: np.ndarray) -> np.ndarray:
    """log N_q(r_t | 0, Phi_t^{-1}) + q/2 log(2 pi) per row, Phi_t = F_t' F_t.

    From the factors: 1/2 log|Phi_t| = sum log diag F_t and
    r' Phi_t r = |F_t r|^2.
    """
    fr = np.einsum("tij,tj->ti", factors, returns)
    return np.log(np.diagonal(factors, axis1=1, axis2=2)).sum(axis=1) - 0.5 * np.einsum("ti,ti->t", fr, fr)


def path_loglik(path: PrecisionPath, data: ReturnsSeries) -> float:
    """log prod_t N_q(r_t | 0, Phi_t^{-1}) along a sampled path (t = 1..T)."""
    if path.T != data.T or path.q != data.q:
        raise DimensionMismatch(
            f"path (T={path.T}, q={path.q}) vs data (T={data.T}, q={data.q})"
        )
    return float(_gauss_terms(path.factors[1:], data.returns).sum() - 0.5 * data.T * data.q * LOG_2PI)


def log_sum_exp(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise EmptyEnsemble("log_sum_exp of an empty array")
    m = float(x.max())
    return m + float(np.log(np.sum(np.exp(x - m))))


def ensemble_logliks(ens: SmoothedEnsemble, data: ReturnsSeries) -> np.ndarray:
    if ens.logliks is not None:
        return np.asarray(ens.logliks, dtype=float)
    if ens.n_draws == 0:
        raise EmptyEnsemble("ensemble has no paths")
    return np.array([path_loglik(p, data) for p in ens.paths])


def log_plr(ens_u: SmoothedEnsemble, ens_b: SmoothedEnsemble, data: ReturnsSeries) -> float:
    """Log posterior likelihood ratio of the first ensemble to the second.

    Each side is a mean-normalized log-sum-exp, so unequal ensemble
    sizes still target the ratio of posterior expectations.
    """
    lu = ensemble_logliks(ens_u, data)
    lb = ensemble_logliks(ens_b, data)
    return (log_sum_exp(lu) - np.log(lu.size)) - (log_sum_exp(lb) - np.log(lb.size))


def batch_means_se(samples, n_batches: int) -> float:
    """Monte Carlo SE of the chain mean from batch means.

    sd of the batch means (n_batches - 1 divisor) over sqrt(n_batches);
    a trailing remainder that does not fill a batch is dropped.
    """
    x = np.asarray(list(samples), dtype=float)
    if n_batches < 2:
        raise InvalidParameter(f"need at least 2 batches, got {n_batches}")
    batch_size = x.size // n_batches
    if batch_size < 1:
        raise InvalidParameter(f"batch size < 1 for {x.size} samples in {n_batches} batches")
    means = x[: n_batches * batch_size].reshape(n_batches, batch_size).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


@dataclass(frozen=True)
class MixtureConfig:
    """Beta(a0, b0) prior on the mixture weight, chain length, burn-in, seed."""

    a0: float = 1.0
    b0: float = 1.0
    iterations: int = 10_000
    burn_in: int | None = None  # default: 10% of iterations
    seed: int = 0

    def __post_init__(self):
        if self.a0 <= 0 or self.b0 <= 0:
            raise InvalidParameter(f"prior shapes must be > 0, got ({self.a0}, {self.b0})")
        burn = self.burn_in if self.burn_in is not None else self.iterations // 10
        if not (0 <= burn < self.iterations):
            raise InvalidParameter(f"need iterations > burn_in >= 0, got ({self.iterations}, {burn})")
        object.__setattr__(self, "burn_in", burn)


@dataclass(frozen=True)
class MixtureTrace:
    """Post-burn-in draws of the mixture weight and the indicator path."""

    alpha: np.ndarray  # (kept,)
    z: np.ndarray  # (kept, T) in {0, 1}
    meta: dict = field(default_factory=dict)


def alpha_posterior_shapes(a0: float, b0: float, z: np.ndarray) -> tuple[float, float]:
    """Conjugate Beta update for the mixture weight given the indicators."""
    z = np.asarray(z)
    s = float(z.sum())
    return a0 + s, b0 + z.size - s


def bernoulli_logweight_prob(logw1: float, logw0: float) -> float:
    """P(z = 1) from two unnormalized log weights, overflow-safe."""
    m = max(logw1, logw0)
    w1 = np.exp(logw1 - m)
    return float(w1 / (w1 + np.exp(logw0 - m)))


def mixture_gibbs(
    data: ReturnsSeries,
    ue: UEHyper,
    bb: BBHyper,
    cfg: MixtureConfig,
    degenerate: bool = False,
) -> MixtureTrace:
    """Missing-data-augmented Gibbs sampler for the two-model mixture.

    Per iteration: (1) each z_t from the log-scale two-way comparison of
    alpha N(r_t^U | 0, (Phi_t^U)^{-1}) against (1 - alpha) times the BB
    term, (2) the unused return at each t imputed from its own model,
    (3) alpha ~ Beta(a0 + sum z, b0 + T - sum z), (4) both precision
    paths refreshed by a full forward filter + backward sample on the
    imputed series.

    ``degenerate`` is a calibration harness: the BB likelihood term is
    forced equal to the UE term, making z_t | - ~ Bernoulli(alpha) and
    the stationary law of alpha its Beta(a0, b0) prior.
    """
    rng = make_rng(cfg.seed)
    T, q = data.T, data.q
    if T < 1:
        raise InvalidParameter("need T >= 1")
    alpha = rng.beta(cfg.a0, cfg.b0)
    z = (rng.random(T) < 0.5).astype(int)
    r_u = data.returns.copy()
    r_b = data.returns.copy()

    kept = cfg.iterations - cfg.burn_in
    alpha_trace = np.empty(kept)
    z_trace = np.empty((kept, T), dtype=np.int8)

    for it in range(cfg.iterations):
        # refresh both precision paths on the current imputed series
        filt_u = ue_forward_filter(ReturnsSeries(r_u), ue)
        f_u = ue_backward_sample(filt_u, ue, rng).factors[1:]
        filt_b = bb_forward_filter(ReturnsSeries(r_b), bb)
        f_b = bb_backward_sample(filt_b, bb, rng).factors[1:]
        if degenerate:
            # identical likelihood terms: both evaluated at the observed r_t
            f_b = f_u
            term_u = term_b = _gauss_terms(f_u, data.returns)
        else:
            # row t - 1 of r_u and r_b is read here before step t rewrites it
            term_u, term_b = _gauss_terms(f_u, r_u), _gauss_terms(f_b, r_b)
        logw1 = np.log(alpha) + term_u
        logw0 = np.log1p(-alpha) + term_b

        for t in range(1, T + 1):
            z[t - 1] = int(rng.random() < bernoulli_logweight_prob(logw1[t - 1], logw0[t - 1]))
            if z[t - 1] == 1:
                r_u[t - 1] = data.returns[t - 1]
                r_b[t - 1] = sample_mvnormal_prec(f_b[t - 1], rng)
            else:
                r_b[t - 1] = data.returns[t - 1]
                r_u[t - 1] = sample_mvnormal_prec(f_u[t - 1], rng)

        a1, b1 = alpha_posterior_shapes(cfg.a0, cfg.b0, z)
        assert a1 + b1 == cfg.a0 + cfg.b0 + T
        alpha = rng.beta(a1, b1)

        if it >= cfg.burn_in:
            alpha_trace[it - cfg.burn_in] = alpha
            z_trace[it - cfg.burn_in] = z

    meta = {
        "a0": cfg.a0,
        "b0": cfg.b0,
        "iterations": cfg.iterations,
        "burn_in": cfg.burn_in,
        "seed": cfg.seed,
        "degenerate": degenerate,
        "init": "alpha from prior, z iid Bernoulli(1/2)",
    }
    return MixtureTrace(alpha=alpha_trace, z=z_trace, meta=meta)


def ppc_intervals(filt: FilterOutput, data: ReturnsSeries, level: float = 0.95):
    """Per-time one-step predictive intervals and cumulative coverage.

    The coordinate margins of the multivariate-t forecast are univariate
    t with df = n + 1 - q and scale^2 = (discount * D_{t-1})_ii / df,
    where n is the prior-at-t degrees of freedom; intervals are central
    and symmetric about zero.  Coverage pools coordinates and runs
    cumulatively over time.

    Returns (lengths, coverage): lengths is (T, q), coverage is (T,).
    """
    if not (0.0 < level < 1.0):
        raise InvalidParameter(f"level must be in (0, 1), got {level}")
    T, q = data.T, data.q
    if filt.g.shape[0] != T + 1 or filt.g.shape[1] != q:
        raise DimensionMismatch("filter output does not match data")
    nu = filt.df_prior + 1.0 - q
    if np.any(nu <= 0):
        t = int(np.argmax(nu <= 0))
        raise InvalidParameter(f"predictive df {nu[t]} <= 0 at t={t}")
    d_diag = np.sum(filt.g[:-1] ** 2, axis=2) / filt.k_obs  # diag(D_{t-1}) = row sums of G G' / k
    half = student_t.ppf(0.5 + level / 2.0, df=nu)[:, None] * np.sqrt(filt.discount * d_diag / nu[:, None])
    lengths = 2.0 * half
    hits = np.abs(data.returns) <= half
    coverage = np.cumsum(hits.sum(axis=1)) / (q * np.arange(1, T + 1))
    return lengths, coverage
