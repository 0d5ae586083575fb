"""Forward filtering, forecast densities, marginal likelihood, grid search.

The sufficient-statistic recursions are those of the conjugate analysis:
UE keeps D_t = lambda D_{t-1} + y_t with fixed posterior df n + k; BB
keeps D_t = b D_{t-1} + y_t together with k_t = beta k_{t-1} + k.  With
k = 1 and y_t = r_t r_t' the one-step forecast is multivariate-t.

One pass, ``_scale_pass``, runs the recursion k D_t = disc k D_{t-1} +
k r_t r_t' and stores each k D_t only as an upper-triangular factor G_t
with G_t G_t' = k D_t (square-root filtering, Bierman 1977).  Then
G_t^{-1} = uchol((k D_t)^{-1}) is the scale factor of the filtered
Wishart posterior of Phi_t, so the backward samplers need nothing but
triangular products and solves against G_t.  The pass also yields the
forecast terms s_t = r_t' D_{t-1}^{-1} r_t and log|D_{t-1}| (from the
diagonal of G_{t-1}), which do not depend on n: the filters,
``marginal_loglik`` and ``grid_search`` all reduce them through
``_forecast_logdensity``, and a grid costs one pass per lambda.

The forecast-density normalizer is Gamma((n+1)/2) / Gamma((n+1-q)/2);
the q = 1, n = 1 case is then exactly standard Cauchy and the density
integrates to one (verified against quadrature and Monte Carlo mixture
oracles in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln

from .errors import DimensionMismatch, InvalidParameter
from .matops import chol_update, logdet_spd, quad_form, sym, uchol
from .volproc import BBHyper, UEHyper

LOG_PI = np.log(np.pi)


@dataclass(frozen=True)
class ReturnsSeries:
    """T return vectors of dimension q; row t is r_t."""

    returns: np.ndarray
    timestamps: tuple[str, ...] | None = None

    def __post_init__(self):
        r = np.atleast_2d(np.asarray(self.returns, dtype=float))
        if r.ndim != 2:
            raise DimensionMismatch(f"returns must be a T x q array, got ndim={r.ndim}")
        if not np.all(np.isfinite(r)):
            raise InvalidParameter("returns contain non-finite values")
        if self.timestamps is not None and len(self.timestamps) != r.shape[0]:
            raise DimensionMismatch("timestamps length must equal T")
        object.__setattr__(self, "returns", r)

    @property
    def T(self) -> int:
        return self.returns.shape[0]

    @property
    def q(self) -> int:
        return self.returns.shape[1]


@dataclass(frozen=True)
class FilterOutput:
    """Filtered sufficient statistics and forecast-density bookkeeping.

    ``g`` stacks the upper-triangular factors G_0..G_T with positive
    diagonal and G_t G_t' = k D_t; ``k_seq`` carries k_0..k_T for BB
    (constant n + k for UE); ``df_prior[t-1]`` is the prior-at-t degrees
    of freedom of the one-step forecast (n for UE, beta k_{t-1} for BB).
    """

    model: str  # "ue" | "bb"
    g: np.ndarray  # (T+1, q, q)
    k_seq: np.ndarray  # (T+1,)
    df_prior: np.ndarray  # (T,)
    log_forecast: np.ndarray  # (T,)
    loglik: float
    k_obs: float  # likelihood df (k)
    discount: float  # lambda (UE) / b (BB)


def forecast_logdensity(r: np.ndarray, d_prev: np.ndarray, n: float, lam: float) -> float:
    """Log one-step forecast density of r_t | D_{t-1} (k = 1 likelihood).

    Multivariate-t: Gamma((n+1)/2)/Gamma((n+1-q)/2) * |lam D|^{-1/2} *
    pi^{-q/2} * (1 + r' D^{-1} r / lam)^{-(n+1)/2}; requires n > q - 1.
    """
    r = np.asarray(r, dtype=float)
    q = r.shape[0]
    if n <= q - 1:
        raise InvalidParameter(f"forecast density needs n > q-1, got n={n}, q={q}")
    return float(_forecast_logdensity(quad_form(r, d_prev), logdet_spd(d_prev), n, lam, q))


def _forecast_logdensity(s, logdet, n, lam: float, q: int):
    """forecast_logdensity from s = r' D^{-1} r and log|D|; elementwise over arrays."""
    return (
        gammaln((n + 1.0) / 2.0)
        - gammaln((n + 1.0 - q) / 2.0)
        - 0.5 * (q * np.log(lam) + logdet)
        - 0.5 * q * LOG_PI
        - 0.5 * (n + 1.0) * np.log1p(s / lam)
    )


def _scale_pass(returns: np.ndarray, d0: np.ndarray, discount: float, k_obs: float):
    """The scale recursion: returns (g, s, logdet).

    ``g`` stacks G_0..G_T, ``s[t-1]`` = r_t' D_{t-1}^{-1} r_t and
    ``logdet[t-1]`` = log|D_{t-1}|.  With J the reversal permutation,
    J G_t' J is the upper Cholesky factor of J k D_t J, so the recursion
    k D_t = discount k D_{t-1} + k r_t r_t' is a rank-1 update of that
    factor; no matrix is refactored or inverted, which matters because
    the simulated data law drives cond(D_t) far past what dense
    refactorization tolerates.
    """
    T, q = returns.shape
    g = np.empty((T + 1, q, q))
    s = np.empty(T)
    g_rev = np.sqrt(k_obs) * uchol(sym(np.asarray(d0, dtype=float))[::-1, ::-1])  # J G' J
    sqrt_disc = np.sqrt(discount)
    sqrt_k = np.sqrt(k_obs)
    g[0] = g_rev.T[::-1, ::-1]
    for t in range(1, T + 1):
        r = returns[t - 1]
        w = solve_triangular(g[t - 1], r, lower=False)
        s[t - 1] = k_obs * float(w @ w)
        g_rev = chol_update(sqrt_disc * g_rev, sqrt_k * r[::-1])
        g[t] = g_rev.T[::-1, ::-1]
    logdet = 2.0 * np.log(np.diagonal(g[:-1], axis1=1, axis2=2)).sum(axis=1) - q * np.log(k_obs)
    return g, s, logdet


def _filter(model: str, data: ReturnsSeries, d0, discount: float, k_obs: float, k_seq, df_prior):
    """The scale pass and its forecast log densities, as a FilterOutput."""
    g, s, logdet = _scale_pass(data.returns, d0, discount, k_obs)
    log_forecast = _forecast_logdensity(s, logdet, df_prior, discount, data.q)
    return FilterOutput(
        model=model,
        g=g,
        k_seq=k_seq,
        df_prior=df_prior,
        log_forecast=log_forecast,
        loglik=float(log_forecast.sum()),
        k_obs=k_obs,
        discount=discount,
    )


def ue_forward_filter(data: ReturnsSeries, ue: UEHyper) -> FilterOutput:
    """Conjugate UE filter with y_t = r_t r_t' (k = 1 analysis path)."""
    if data.q != ue.q:
        raise DimensionMismatch(f"data dimension {data.q} != hyperparameter q {ue.q}")
    if ue.k != 1:
        raise InvalidParameter("the returns-based filter is defined for k = 1")
    k_seq = np.full(data.T + 1, ue.n + ue.k)
    return _filter("ue", data, ue.d0, ue.lam, ue.k, k_seq, np.full(data.T, float(ue.n)))


def bb_forward_filter(data: ReturnsSeries, bb: BBHyper) -> FilterOutput:
    """Conjugate BB filter: D_t = b D_{t-1} + y_t, k_t = beta k_{t-1} + k."""
    if data.q != bb.q:
        raise DimensionMismatch(f"data dimension {data.q} != hyperparameter q {bb.q}")
    if bb.k != 1:
        raise InvalidParameter("the returns-based filter is defined for k = 1")
    T = data.T
    k_seq = np.empty(T + 1)
    k_seq[0] = bb.k0
    eps = np.finfo(float).eps
    for t in range(1, T + 1):
        nxt = bb.beta * k_seq[t - 1] + bb.k
        # snap the recursion at its fixed point k/(1 - beta): at matched
        # hyperparameters k_t is exactly n + k, and a 1-ulp drift per
        # step would otherwise accumulate
        if abs(nxt - k_seq[t - 1]) <= 4.0 * eps * abs(k_seq[t - 1]):
            nxt = k_seq[t - 1]
        k_seq[t] = nxt
    if np.any(bb.beta * k_seq - bb.q + 1 <= 0):
        raise InvalidParameter("df path violates Beta-shape positivity along the filtration")
    # prior-at-t df is beta * k_{t-1}
    return _filter("bb", data, bb.d0, bb.b, bb.k, k_seq, bb.beta * k_seq[:T])


def marginal_loglik(data: ReturnsSeries, n: float, lam: float, d0: np.ndarray) -> float:
    """Sum of one-step forecast log densities (k = 1), from one scale pass."""
    q = data.q
    if n <= q - 1:
        raise InvalidParameter(f"need n > q-1, got n={n}, q={q}")
    _, s, logdet = _scale_pass(data.returns, d0, lam, 1.0)
    return float(_forecast_logdensity(s, logdet, n, lam, q).sum())


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
    """
    n_grid = list(n_grid)
    lambda_grid = list(lambda_grid)
    if not n_grid or not lambda_grid:
        raise InvalidParameter("grids must be nonempty")
    q = data.q
    for n in n_grid:
        if n <= q - 1:
            raise InvalidParameter(f"grid point n={n} invalid for q={q}")
    for lam in lambda_grid:
        if not (0.0 < lam < 1.0):
            raise InvalidParameter(f"grid point lambda={lam} outside (0, 1)")
    n_col = np.asarray(n_grid, dtype=float)[:, None]
    surface = np.empty((len(n_grid), len(lambda_grid)))
    for j, lam in enumerate(lambda_grid):
        _, s, logdet = _scale_pass(data.returns, d0, lam, 1.0)
        surface[:, j] = _forecast_logdensity(s, logdet, n_col, lam, q).sum(axis=1)
    best = np.unravel_index(np.argmax(surface), surface.shape)
    return float(n_grid[best[0]]), float(lambda_grid[best[1]]), surface


def constrained_lambda(n: float, k: float, q: int) -> float:
    """Discount implied by lambda^{-1} = 1 + k / (n - q - 1); needs n > q + 1."""
    if n <= q + 1:
        raise InvalidParameter(f"need n > q + 1, got n={n}, q={q}")
    return (n - q - 1.0) / (n - q - 1.0 + k)
