"""Forward filtering, forecast densities, marginal likelihood, grid search.

The sufficient-statistic recursions are those of the conjugate analysis:
UE keeps D_t = lambda D_{t-1} + y_t with fixed posterior df n + k; BB
keeps D_t = b D_{t-1} + y_t together with k_t = beta k_{t-1} + k.  With
k = 1 and y_t = r_t r_t' the one-step forecast is multivariate-t.

A hyperparameter set, ``UEHyper`` or ``BBHyper``, is the only statement
of the model.  ``forward_filter(data, hyper)`` runs either model and
keeps ``hyper`` in its ``FilterOutput``; ``simulate(hyper, T, seed)``
draws from either.  Both read the discount, k_0..k_T and the prior df
from one function, ``_df_path``, which sums the BB df recursion in closed form.

``_factor_path`` runs the recursion D_t = disc D_{t-1} + r_t r_t' and
stores each D_t only as an upper-triangular factor G_t with G_t G_t' =
D_t (square-root filtering, Bierman 1977).  Then G_t^{-1} =
uchol(D_t^{-1}) is the scale factor of the filtered Wishart posterior of
Phi_t, so the backward samplers, which read only a ``FactorPath``, need
nothing but triangular products and solves against G_t.  Its loop over t
is one Givens rank-1 update per step (Gill, Golub, Murray & Saunders
1974) on Python floats, with no numpy call or solve inside it.
``_forecast_terms`` then reads log(1 + s_t / disc), with s_t = r_t'
D_{t-1}^{-1} r_t, and log|D_{t-1}| off G's diagonal alone: by the matrix
determinant lemma the first is log|D_t| - log|disc D_{t-1}|.  Neither
depends on n: the filter and ``grid_search`` (so ``marginal_loglik``,
its one-cell case, which serves a single step too) reduce them through
``_forecast_logdensity``.  The filter and a mixture sweep (``_factor_path``
alone, through ``_factor_path_on``) run the Givens chain's full
rendering, which keeps every G_t; a grid the one that keeps only G_t's
diagonal and G_T, and raises what the filter raises, at the same t.

``simulate`` draws returns through the factor path's Givens chain, each
r_t from its one-step forecast law, and then their precision path from
the model's smoothed law given them: the pair has the exact joint law.

The forecast-density normalizer is Gamma((n+1)/2) / Gamma((n+1-q)/2);
the q = 1, n = 1 case is then exactly standard Cauchy and the density
integrates to one (verified against quadrature and Monte Carlo mixture
oracles in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DimensionMismatch, InvalidParameter, NotPositiveDefinite
from .matops import _fault_at, _givens_chain, _givens_pivots, gram, tri_solve_stack, uchol
from .randsamp import make_rng, sample_bartlett_factor, substream
from .smoother import backward_sample
from .volproc import BBHyper, UEHyper, _prior_scale

LOG_PI = np.log(np.pi)


@dataclass(frozen=True)
class ReturnsSeries:
    """T return vectors of dimension q; row t is r_t."""

    returns: np.ndarray

    def __post_init__(self):
        r = np.atleast_2d(np.asarray(self.returns, dtype=float))
        if r.ndim != 2 or r.shape[1] < 1:
            raise DimensionMismatch(f"returns must be a T x q array with q >= 1, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise InvalidParameter("returns contain non-finite values")
        object.__setattr__(self, "returns", r)

    @property
    def T(self) -> int:
        return self.returns.shape[0]

    @property
    def q(self) -> int:
        return self.returns.shape[1]


@dataclass(frozen=True)
class FactorPath:
    """What the backward samplers read of a filter: the model and its factors.

    ``hyper`` is the hyperparameter set the filter ran with; its type,
    ``UEHyper`` or ``BBHyper``, is the model.  ``g`` stacks the
    upper-triangular factors G_0..G_T with positive diagonal and
    G_t G_t' = D_t; ``k_seq`` carries k_0..k_T for BB (constant n + k for
    UE); ``df_prior[t-1]`` is the prior-at-t degrees of freedom of the
    one-step forecast (n for UE, beta k_{t-1} for BB).
    """

    hyper: UEHyper | BBHyper  # the model the filter ran
    g: np.ndarray  # (T+1, q, q)
    k_seq: np.ndarray  # (T+1,)
    df_prior: np.ndarray  # (T,)
    discount: float  # lambda (UE) / b (BB)


@dataclass(frozen=True)
class FilterOutput(FactorPath):
    """A ``FactorPath`` with its one-step forecast log densities and their sum."""

    log_forecast: np.ndarray  # (T,)
    loglik: float


def _forecast_logdensity(b, logdet, n, lam: float, q: int):
    """Log one-step forecast density of r_t | D_{t-1} (k = 1 likelihood); elementwise over arrays.

    Multivariate-t: Gamma((n+1)/2)/Gamma((n+1-q)/2) * |lam D|^{-1/2} *
    pi^{-q/2} * (1 + s / lam)^{-(n+1)/2}, from b = log(1 + s / lam) and
    log|D| (``_forecast_terms``).
    """
    return (
        gammaln((n + 1.0) / 2.0)
        - gammaln((n + 1.0 - q) / 2.0)
        - 0.5 * (q * np.log(lam) + logdet)
        - 0.5 * q * LOG_PI
        - 0.5 * (n + 1.0) * b
    )


def _initial_factor(d0, q: int) -> np.ndarray:
    """G_0 with G_0 G_0' = D_0, upper-triangular; D_0 is checked as UEHyper checks it."""
    return uchol(_prior_scale(d0, q)[::-1, ::-1]).T[::-1, ::-1]  # J uchol(J D_0 J)' J, J the reversal


def _factor_path(returns: np.ndarray, g0: np.ndarray, discount: float) -> np.ndarray:
    """G_0..G_T of the scale recursion D_t = discount D_{t-1} + r_t r_t', from G_0.

    Each step is a rank-1 update of G_t by ``matops._givens_chain``; no
    matrix is refactored or inverted, which matters because the simulated
    data law drives cond(D_t) far past what dense refactorization
    tolerates.  Raises NotPositiveDefinite at the t where a pivot of G_t
    vanishes, InvalidParameter at the first t where G_t is not finite.
    """
    out = [tuple(g0.ravel().tolist())]
    try:
        g = _givens_chain(out, returns.tolist(), math.sqrt(discount), outer=True)
    except NotPositiveDefinite as exc:  # out holds G_0..G_{t-1}
        raise NotPositiveDefinite(f"{exc} at t={len(out)}") from None
    _fault_at((~np.isfinite(g[1:]), InvalidParameter, "scale recursion overflows: D_t is not finite"))
    return g


def _factor_path_on(path: FactorPath, returns: np.ndarray) -> FactorPath:
    """``path``'s model on other returns of its length: only ``_factor_path`` runs, from its G_0."""
    g = _factor_path(returns, path.g[0], path.discount)
    return FactorPath(path.hyper, g, path.k_seq, path.df_prior, path.discount)


def _forecast_terms(diag: np.ndarray, discount: float):
    """(b, logdet): b[t-1] = log(1 + s_t / discount) and logdet[t-1] = log|D_{t-1}|, from G's diagonal.

    ``diag`` (T+1, q) holds G_0..G_T's diagonals, diag[t, i] = (G_t)_ii.
    Here s_t = r_t' D_{t-1}^{-1} r_t.  By the matrix determinant lemma
    |discount D_{t-1} + r_t r_t'| = discount^q |D_{t-1}| (1 + s_t / discount),
    so b[t-1] = log|D_t| - log|discount D_{t-1}|: no solve, and b stays
    finite where s_t overflows.  Each log g_ii is differenced on its own;
    a ratio g_ii(t) / g_ii(t-1) overflows at a subnormal pivot.
    """
    log_diag = np.log(diag)
    b = 2.0 * (log_diag[1:] - log_diag[:-1]).sum(axis=1) - diag.shape[-1] * math.log(discount)
    return b, 2.0 * log_diag[:-1].sum(axis=1)


def _df_path(hyper, T: int):
    """(discount, k_0..k_T, prior df at t = 1..T) of a hyperparameter set over T steps.

    UE keeps k_t = n + k and prior df n.  BB's k_t = beta k_{t-1} + k is
    k_t = k_inf + beta^t (k_0 - k_inf), with k_inf = k / (1 - beta) its
    fixed point; each k_t is summed from the end it is nearer, k_inf while
    beta^t <= 1/2 and k_0 (with 1 - beta^t from expm1) before, so neither
    sum cancels.  When k_0 is the fixed point to 4 machine epsilons, as
    under matching (k_0 = n + k), k_inf = k_0 and k_t = k_0 exactly.  The
    prior df beta k_{t-1} must stay above q - 1: raises InvalidParameter
    at the first t where it does not.
    """
    if isinstance(hyper, UEHyper):
        return hyper.lam, np.full(T + 1, float(hyper.n + hyper.k)), np.full(T, float(hyper.n))
    if not isinstance(hyper, BBHyper):
        raise InvalidParameter(f"expected a UEHyper or BBHyper, got {type(hyper).__name__}")
    beta, k, k0 = float(hyper.beta), float(hyper.k), float(hyper.k0)
    k_inf = k0 if abs(beta * k0 + k - k0) <= 4.0 * math.ulp(1.0) * k0 else k / (1.0 - beta)
    t = np.arange(T + 1.0)
    p = beta**t
    k_seq = np.where(p <= 0.5, k_inf + p * (k0 - k_inf), k0 - np.expm1(t * math.log(beta)) * (k_inf - k0))
    df_prior = beta * k_seq[:T]
    _fault_at((df_prior <= hyper.q - 1, InvalidParameter, "prior df beta k_{t-1} <= q - 1"))
    return hyper.b, k_seq, df_prior


def _filter_output(hyper: UEHyper | BBHyper, g: np.ndarray, discount: float, k_seq, df_prior) -> FilterOutput:
    """The model ``hyper``'s ``FilterOutput`` on the factor path g, given its ``_df_path``."""
    terms = _forecast_terms(np.diagonal(g, axis1=1, axis2=2), discount)
    log_forecast = _forecast_logdensity(*terms, df_prior, discount, hyper.q)
    return FilterOutput(hyper, g, k_seq, df_prior, discount, log_forecast, float(log_forecast.sum()))


def forward_filter(data: ReturnsSeries, hyper: UEHyper | BBHyper) -> FilterOutput:
    """The conjugate filter of the model ``hyper`` states, with y_t = r_t r_t'.

    D_t = discount D_{t-1} + y_t, the discount being lambda (UE) or b
    (BB); BB also runs k_t = beta k_{t-1} + k.  The factor path depends
    only on the returns, D_0 and the discount; the models part after it,
    in ``_filter_output``.  So matched UE and BB share one factor path and
    give the same output but for ``hyper``, the model every later step reads.
    """
    df_path = _df_path(hyper, data.T)
    if data.q != hyper.q:
        raise DimensionMismatch(f"data dimension {data.q} != hyperparameter q {hyper.q}")
    g = _factor_path(data.returns, _initial_factor(hyper.d0, data.q), df_path[0])
    return _filter_output(hyper, g, *df_path)


def simulate(hyper: UEHyper | BBHyper, T: int, seed: int):
    """Generate returns and their precision path Phi_0..Phi_T from the model ``hyper`` states.

    Each r_t is drawn from its one-step forecast law given the past
    returns (their joint law is the product of those densities), in
    D_{t-1}-whitened coordinates where every quantity is O(1): with A_t
    the Bartlett factor of Wishart(prior df, I) and z_t ~ N(0, I),
    r_t = R_{t-1}' w_t with w_t = sqrt(disc) A_t^{-1} z_t and R_{t-1} the
    factor of D_{t-1} the Givens chain appended last, so no inverse factor of
    the (possibly extremely ill-conditioned) D is formed.  The path is one
    ``backward_sample`` of the model's filter on the returns, from
    substream (seed, 1), so matched UE and BB give the same returns and
    differently distributed paths.

    Stepping the state equation directly instead is only viable for
    short horizons: the precision's log-determinant drifts, so condition
    numbers overflow double precision within a few hundred steps.
    """
    if T < 0:
        raise InvalidParameter(f"T must be >= 0, got {T}")
    disc, k_seq, df_prior = _df_path(hyper, T)
    rng, q = make_rng(seed), hyper.q
    # a Bartlett draw the returns do not use, kept so that each seed keeps its returns
    sample_bartlett_factor(q, k_seq[0], rng)
    a, z = np.empty((T, q, q)), np.empty((T, q))
    for t, df in enumerate(df_prior.tolist()):
        a[t] = sample_bartlett_factor(q, df, rng)
        z[t] = rng.standard_normal(q)
    with np.errstate(all="ignore"):  # a chi-square draw that underflows to 0 gives an infinite w_t
        w = (tri_solve_stack(a, z) * math.sqrt(disc)).tolist()
    out = [tuple(uchol(hyper.d0).ravel().tolist())]  # R_0 with R_0' R_0 = D_0, row-major
    cols = [[(i * q + j, i) for i in range(j, -1, -1)] for j in range(q)]  # R[i, j], i <= j
    returns = []

    def draws():  # r_t = R_{t-1}' w_t, R_{t-1} the factor the chain appended last
        for w_t in w:
            r = out[-1]
            returns.append([sum(r[k] * w_t[i] for k, i in col) for col in cols])
            yield returns[-1]

    _givens_chain(out, draws(), math.sqrt(disc))
    returns = np.array(returns).reshape(T, q)
    _fault_at((~np.isfinite(returns), InvalidParameter, "simulated r_t overflows double precision"))
    series = ReturnsSeries(returns)
    return series, gram(backward_sample(forward_filter(series, hyper), substream(seed, 1)))


def marginal_loglik(data: ReturnsSeries, n: float, lam: float, d0: np.ndarray) -> float:
    """Sum of one-step forecast log densities (k = 1): the one-cell ``grid_search``."""
    return float(grid_search(data, d0, [n], [lam])[2][0, 0])


def grid_search(
    data: ReturnsSeries,
    d0: np.ndarray,
    n_grid,
    lambda_grid,
) -> tuple[float, float, np.ndarray]:
    """Maximize the marginal likelihood over the (n, lambda) grid.

    Returns (n_star, lambda_star, surface) with surface[i, j] the log
    marginal likelihood at (n_grid[i], lambda_grid[j]).  Ties break
    toward the smallest n, then the smallest lambda.

    D_0 is factored and the returns turned into Python rows once.  Each
    lambda keeps only G_t's diagonal and G_T (``_givens_pivots``); where
    one is not finite or a pivot vanishes, ``_factor_path`` runs for that
    lambda and names the t of the fault, as the filter does.
    """
    n_grid = list(n_grid)
    lambda_grid = list(lambda_grid)
    if not n_grid or not lambda_grid:
        raise InvalidParameter("grids must be nonempty")
    q = data.q
    for n in n_grid:
        if not q - 1 < n < math.inf:
            raise InvalidParameter(f"grid point n={n} invalid for q={q}")
    for lam in lambda_grid:
        if not (0.0 < lam < 1.0):
            raise InvalidParameter(f"grid point lambda={lam} outside (0, 1)")
    n_col = np.asarray(n_grid, dtype=float)[:, None]
    surface = np.empty((len(n_grid), len(lambda_grid)))
    g0 = _initial_factor(d0, q)
    r0, rows = tuple(g0.ravel().tolist()), data.returns.tolist()
    for j, lam in enumerate(lambda_grid):
        try:
            diag, last = _givens_pivots(r0, rows, math.sqrt(lam))
        except NotPositiveDefinite:
            diag = last = np.nan
        if not (np.isfinite(diag).all() and np.isfinite(last).all()):
            diag = np.diagonal(_factor_path(data.returns, g0, lam), axis1=1, axis2=2)
        surface[:, j] = _forecast_logdensity(*_forecast_terms(diag, lam), n_col, lam, q).sum(axis=1)
    best = np.unravel_index(np.argmax(surface), surface.shape)
    return float(n_grid[best[0]]), float(lambda_grid[best[1]]), surface


def constrained_lambda(n: float, k: float, q: int) -> float:
    """Discount implied by lambda^{-1} = 1 + k / (n - q - 1); needs a finite n > q + 1 and k > 0."""
    if not q + 1 < n < math.inf:
        raise InvalidParameter(f"need a finite n > q + 1, got n={n}, q={q}")
    if not 0 < k < math.inf:
        raise InvalidParameter(f"need a finite k > 0, got {k}")
    return (n - q - 1.0) / (n - q - 1.0 + k)
