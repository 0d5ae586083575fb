"""Model comparison given smoothed ensembles.

When two models share a marginal likelihood, Bayes factors carry no
information; the tools here are the ones that still discriminate:
log posterior likelihood ratio via log-sum-exp, the missing-data
mixture Gibbs sampler over the model indicator, posterior predictive
interval checks, and batch-means standard errors for chain output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp, stdtrit

from .errors import DimensionMismatch, EmptyEnsemble, InvalidParameter
from .filtering import FilterOutput, ReturnsSeries, _factor_path, filter_pair
from .matops import _fault_at, _fits_index, _row_norms
from .randsamp import make_rng, sample_mvnormal_prec
from .smoother import backward_sample
from .volproc import BBHyper, UEHyper

LOG_2PI = np.log(2.0 * np.pi)


def _gauss_terms(factors: np.ndarray, returns: np.ndarray) -> np.ndarray:
    """log N_q(r_t | 0, Phi_t^{-1}) + q/2 log(2 pi) per row, Phi_t = F_t' F_t.

    From the factors: 1/2 log|Phi_t| = sum log diag F_t and
    r' Phi_t r = |F_t r|^2.
    """
    fr = np.einsum("tij,tj->ti", factors, returns)
    return np.log(factors.diagonal(0, 1, 2)).sum(axis=1) - 0.5 * np.einsum("ti,ti->t", fr, fr)


def path_loglik(factors: np.ndarray, data: ReturnsSeries):
    """log prod_t N_q(r_t | 0, Phi_t^{-1}) along each path in factors (..., T + 1, q, q).

    One value per leading index; draws and time share one ``_gauss_terms`` call.
    """
    if factors.shape[-3:] != (data.T + 1, data.q, data.q):
        raise DimensionMismatch(f"paths {factors.shape} vs data (T={data.T}, q={data.q})")
    lead = factors.shape[:-3]
    f = factors[..., 1:, :, :].reshape(-1, data.q, data.q)
    r = np.broadcast_to(data.returns, lead + data.returns.shape).reshape(-1, data.q)
    terms = _gauss_terms(f, r).reshape(lead + (data.T,))
    # on returns far off Phi_t's scale |F_t r_t|^2 overflows (or F_t cannot resolve r_t): no ratio is left
    _fault_at((~np.isfinite(np.moveaxis(terms, -1, 0)), InvalidParameter, "path log likelihood is not finite"))
    return terms.sum(axis=-1) - 0.5 * data.T * data.q * LOG_2PI


def log_plr(lu, lb) -> float:
    """Log posterior likelihood ratio of ensemble u to b, from their ``path_loglik`` arrays.

    Each side is a mean-normalized log-sum-exp, so unequal ensemble
    sizes still target the ratio of posterior expectations.  Raises
    EmptyEnsemble when a side is empty.
    """
    lu, lb = np.asarray(lu, dtype=float), np.asarray(lb, dtype=float)
    if lu.size == 0 or lb.size == 0:
        raise EmptyEnsemble("log_plr of an empty ensemble")
    return (logsumexp(lu) - np.log(lu.size)) - (logsumexp(lb) - np.log(lb.size))


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
        if not (0 < self.a0 < math.inf and 0 < self.b0 < math.inf):
            raise InvalidParameter(f"prior shapes must be finite and > 0, got ({self.a0}, {self.b0})")
        burn = self.burn_in if self.burn_in is not None else self.iterations // 10
        if not (0 <= burn < self.iterations):
            raise InvalidParameter(f"need iterations > burn_in >= 0, got ({self.iterations}, {burn})")
        object.__setattr__(self, "burn_in", burn)


@dataclass(frozen=True)
class MixtureTrace:
    """Post-burn-in draws of the mixture weight and the indicator path."""

    alpha: np.ndarray  # (kept,)
    z: np.ndarray  # (kept, T) in {0, 1}


def alpha_posterior_shapes(a0: float, b0: float, z: np.ndarray) -> tuple[float, float]:
    """Conjugate Beta update for the mixture weight given the indicators."""
    z = np.asarray(z)
    s = float(z.sum())
    return a0 + s, b0 + z.size - s


def mixture_gibbs(
    data: ReturnsSeries,
    ue: UEHyper,
    bb: BBHyper,
    cfg: MixtureConfig,
    degenerate: bool = False,
) -> MixtureTrace:
    """Missing-data-augmented Gibbs sampler for the two-model mixture.

    Once per chain, the models filter the observed series (``filter_pair``:
    once when they are matched), which checks it; every sweep reuses that
    filter's df path, discount and D_0 factor, and the first sweep its
    factors.  Per sweep,
    in draw order: (1) the UE, then the BB precision path, each by a
    backward sample of a ``FilterOutput`` built from its filter's fields
    and the Givens chain's factors on its imputed series (no forecast
    density is computed); (2) all z_t
    from one ``rng.random(T)``, by the log-scale comparison of
    alpha N(r_t^U | 0, (Phi_t^U)^{-1}) against (1 - alpha) times the BB
    term, both models' terms from one ``_gauss_terms`` call; (3) one (T, q) normal block
    imputing, at each t, the return of the model not chosen from its own
    path; (4) alpha ~ Beta(a0 + sum z, b0 + T - sum z).  Nothing in a sweep
    loops over t outside the passes.

    ``degenerate`` is a calibration harness: the BB likelihood term is
    forced equal to the UE term, making z_t | - ~ Bernoulli(alpha) and
    the stationary law of alpha its Beta(a0, b0) prior.  A trace no array
    can index raises InvalidParameter before any draw.
    """
    T, kept = data.T, cfg.iterations - cfg.burn_in
    if T < 1:
        raise InvalidParameter("need T >= 1")
    _fits_index(kept * T, f"a trace of {kept} kept sweeps of T={T} indicators")
    rng = make_rng(cfg.seed)
    filts = paths = filter_pair(data, ue, bb)
    alpha = rng.beta(cfg.a0, cfg.b0)
    r_u = r_b = data.returns

    alpha_trace = np.empty(kept)
    z_trace = np.empty((kept, T), dtype=np.int8)

    for it in range(cfg.iterations):
        if it:
            paths = [FilterOutput(f.hyper, _factor_path(r, f.g[0], f.discount), f.k_seq, f.df_prior, f.discount)
                     for f, r in zip(filts, (r_u, r_b))]
        f_u = backward_sample(paths[0], rng)[1:]
        f_b = backward_sample(paths[1], rng)[1:]
        if degenerate:
            # identical likelihood terms: both evaluated at the observed r_t
            f_b = f_u
            term_u = term_b = _gauss_terms(f_u, data.returns)
        else:
            term_u, term_b = _gauss_terms(np.concatenate([f_u, f_b]), np.concatenate([r_u, r_b])).reshape(2, T)
        _fault_at((~np.isfinite(term_u + term_b), InvalidParameter, "mixture likelihood term is not finite"))
        prob = expit((np.log(alpha) + term_u) - (np.log1p(-alpha) + term_b))

        # z_t = 1 keeps the observed r_t for UE and imputes the BB row
        z = rng.random(T) < prob
        imputed = sample_mvnormal_prec(np.where(z[:, None, None], f_b, f_u), rng)
        r_u = np.where(z[:, None], data.returns, imputed)
        r_b = np.where(z[:, None], imputed, data.returns)
        # the sampler checked every factor; check the draws once per sweep
        _fault_at((~np.isfinite(imputed), InvalidParameter, "imputed r_t is not finite"))

        alpha = rng.beta(*alpha_posterior_shapes(cfg.a0, cfg.b0, z))

        if it >= cfg.burn_in:
            alpha_trace[it - cfg.burn_in] = alpha
            z_trace[it - cfg.burn_in] = z

    return MixtureTrace(alpha=alpha_trace, z=z_trace)


def ppc_intervals(filt: FilterOutput, data: ReturnsSeries, level: float = 0.95):
    """Per-time one-step predictive intervals and cumulative coverage.

    The coordinate margins of the multivariate-t forecast are univariate
    t with df = n + 1 - q and scale^2 = (discount * D_{t-1})_ii / df,
    where n is the prior-at-t degrees of freedom; intervals are central
    and symmetric about zero, the t quantile from ``stdtrit``.  The scale
    is sqrt(discount / df) times the norm of row i of G_{t-1}, folded by
    hypot, so it is finite wherever G is.  Coverage pools coordinates and
    runs cumulatively over time.

    Returns (lengths, coverage): lengths is (T, q), coverage is (T,).
    """
    if not (0.0 < level < 1.0):
        raise InvalidParameter(f"level must be in (0, 1), got {level}")
    T, q = data.T, data.q
    if filt.g.shape[0] != T + 1 or filt.g.shape[1] != q:
        raise DimensionMismatch("filter output does not match data")
    nu = filt.df_prior + 1.0 - q
    _fault_at((nu <= 0, InvalidParameter, "predictive df <= 0"))
    # sqrt(diag(D_{t-1})) is the norm of each row of G_{t-1}
    scale = np.sqrt(filt.discount / nu)[:, None] * _row_norms(filt.g[:-1])
    half = stdtrit(nu, 0.5 + level / 2.0)[:, None] * scale
    lengths = 2.0 * half
    hits = np.abs(data.returns) <= half
    coverage = np.cumsum(hits.sum(axis=1)) / (q * np.arange(1, T + 1))
    return lengths, coverage
