"""Forward filtering, forecast densities, marginal likelihood, grid search.

The sufficient-statistic recursions are those of the conjugate analysis:
UE keeps D_t = lambda D_{t-1} + y_t with fixed posterior df n + k; BB
keeps D_t = b D_{t-1} + y_t together with k_t = beta k_{t-1} + k.  With
k = 1 and y_t = r_t r_t' the one-step forecast is multivariate-t.

A hyperparameter set, ``UEHyper`` or ``BBHyper``, is the only statement
of the model.  ``forward_filter(data, hyper)`` runs either model and
keeps ``hyper`` in its ``FilterOutput``; ``simulate(hyper, T, seed)``
draws from either.  Both read the discount, k_0..k_T and the prior df
from one function, ``_df_path``, the one copy of the BB df recursion.

One pass, ``_scale_pass``, runs the recursion D_t = disc D_{t-1} +
r_t r_t' and stores each D_t only as an upper-triangular factor G_t
with G_t G_t' = D_t (square-root filtering, Bierman 1977).  Then
G_t^{-1} = uchol(D_t^{-1}) is the scale factor of the filtered
Wishart posterior of Phi_t, so the backward samplers need nothing but
triangular products and solves against G_t.  Its loop over t is one
Givens rank-1 update per step (Gill, Golub, Murray & Saunders 1974) on
Python floats, with no numpy call or solve inside it.  After the loop
the pass yields the forecast terms s_t = r_t' D_{t-1}^{-1} r_t, from one
back-substitution over all t, and log|D_{t-1}|, from the diagonal of
G_{t-1}.  Neither depends on n: the filter, ``forecast_logdensity``
(a pass of one step) and ``grid_search`` (and so ``marginal_loglik``, its
one-cell case) all reduce them through ``_forecast_logdensity``, and a
grid costs one pass per lambda.

``simulate`` draws returns from a model's own joint law by running the
same recursion forward, one exact one-step prior draw of Phi_t at a time,
with the scale pass's Givens update.

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

from .errors import DimensionMismatch, InvalidParameter
from .matops import _givens_chain, _givens_update, rchol, tri_solve, uchol
from .randsamp import make_rng, sample_bartlett_factor, sample_wishart_bartlett
from .volproc import BBHyper, UEHyper

LOG_PI = np.log(np.pi)


@dataclass(frozen=True)
class ReturnsSeries:
    """T return vectors of dimension q; row t is r_t."""

    returns: np.ndarray
    timestamps: tuple[str, ...] | None = None

    def __post_init__(self):
        r = np.atleast_2d(np.asarray(self.returns, dtype=float))
        if r.ndim != 2 or r.shape[1] < 1:
            raise DimensionMismatch(f"returns must be a T x q array with q >= 1, got shape {r.shape}")
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

    ``hyper`` is the hyperparameter set the filter ran with; its type,
    ``UEHyper`` or ``BBHyper``, is the model, and the backward samplers
    read everything they need from here.  ``g`` stacks the
    upper-triangular factors G_0..G_T with positive diagonal and
    G_t G_t' = D_t; ``k_seq`` carries k_0..k_T for BB (constant n + k for
    UE); ``df_prior[t-1]`` is the prior-at-t degrees of freedom of the
    one-step forecast (n for UE, beta k_{t-1} for BB).
    """

    hyper: UEHyper | BBHyper  # the model the filter ran
    g: np.ndarray  # (T+1, q, q)
    k_seq: np.ndarray  # (T+1,)
    df_prior: np.ndarray  # (T,)
    log_forecast: np.ndarray  # (T,)
    loglik: float
    discount: float  # lambda (UE) / b (BB)


def forecast_logdensity(r: np.ndarray, d_prev: np.ndarray, n: float, lam: float) -> float:
    """Log one-step forecast density of r_t | D_{t-1} (k = 1 likelihood).

    Multivariate-t: Gamma((n+1)/2)/Gamma((n+1-q)/2) * |lam D|^{-1/2} *
    pi^{-q/2} * (1 + r' D^{-1} r / lam)^{-(n+1)/2}; requires n > q - 1
    and a finite lam > 0 (lam = 1 included).  The terms come from a
    one-step ``_scale_pass``, so a return whose statistics overflow
    double precision raises InvalidParameter, as ``marginal_loglik``
    does, rather than returning -inf.
    """
    r = np.asarray(r, dtype=float)
    q = r.shape[0]
    if not n > q - 1:
        raise InvalidParameter(f"forecast density needs n > q-1, got n={n}, q={q}")
    if not 0.0 < lam < math.inf:
        raise InvalidParameter(f"forecast density needs a finite lambda > 0, got lambda={lam}")
    _, s, logdet = _scale_pass(r[None], d_prev, 1.0)
    return float(_forecast_logdensity(s[0], logdet[0], n, lam, q))


def _forecast_logdensity(s, logdet, n, lam: float, q: int):
    """forecast_logdensity from s = r' D^{-1} r and log|D|; elementwise over arrays."""
    return (
        gammaln((n + 1.0) / 2.0)
        - gammaln((n + 1.0 - q) / 2.0)
        - 0.5 * (q * np.log(lam) + logdet)
        - 0.5 * q * LOG_PI
        - 0.5 * (n + 1.0) * np.log1p(s / lam)
    )


def _scale_pass(returns: np.ndarray, d0: np.ndarray, discount: float):
    """The scale recursion: returns (g, s, logdet).

    ``g`` stacks G_0..G_T, ``s[t-1]`` = r_t' D_{t-1}^{-1} r_t and
    ``logdet[t-1]`` = log|D_{t-1}|.  With J the reversal permutation,
    J G_t' J is the upper Cholesky factor of J D_t J, so the recursion
    D_t = discount D_{t-1} + r_t r_t' is a rank-1 update of that
    factor; no matrix is refactored or inverted, which matters because
    the simulated data law drives cond(D_t) far past what dense
    refactorization tolerates.

    The loop over t, ``matops._givens_chain``, keeps J G_t' J as rows of
    Python floats and applies Givens rotations to them; at q <= 5 a
    numpy call per step costs more than the arithmetic.  Each factor
    goes into one flat buffer, reshaped once.  Then s_t =
    |G_{t-1}^{-1} r_t|^2 comes from one back-substitution over all t.
    Raises InvalidParameter unless d0 is q x q, NotPositiveDefinite
    unless it is symmetric positive definite, and InvalidParameter at
    the first t where G_t or s_t is not finite, i.e. where the returns
    overflow double precision.
    """
    T, q = returns.shape
    d0 = np.asarray(d0, dtype=float)
    if d0.shape != (q, q):
        raise InvalidParameter(f"d0 must be {q}x{q}, got {d0.shape}")
    rows = uchol(d0[::-1, ::-1]).tolist()  # J G_0' J
    flat = _givens_chain(rows, returns[:, ::-1].tolist(), math.sqrt(discount))
    g = np.frombuffer(flat).reshape(T + 1, q, q).transpose(0, 2, 1)[:, ::-1, ::-1].copy()
    g_prev = g[:-1]
    w = [None] * q
    with np.errstate(all="ignore"):  # overflow is reported below
        for i in reversed(range(q)):
            acc = returns[:, i]
            for j in range(i + 1, q):
                acc = acc - g_prev[:, i, j] * w[j]
            w[i] = acc / g_prev[:, i, i]
        s = sum(wi * wi for wi in w)
    bad = ~np.isfinite(g[1:]).all(axis=(1, 2)) | ~np.isfinite(s)
    if bad.any():
        raise InvalidParameter(
            f"scale recursion overflows at t={int(np.argmax(bad)) + 1}: s_t or D_t is not finite"
        )
    logdet = 2.0 * np.log(np.diagonal(g_prev, axis1=1, axis2=2)).sum(axis=1)
    return g, s, logdet


def _df_path(hyper, T: int):
    """(discount, k_0..k_T, prior df at t = 1..T) of a hyperparameter set over T steps.

    UE keeps k_t = n + k and prior df n.  BB runs k_t = beta k_{t-1} + k
    with prior df beta k_{t-1}, which must stay above q - 1: raises
    InvalidParameter at the first t where it does not.
    """
    if isinstance(hyper, UEHyper):
        return hyper.lam, np.full(T + 1, hyper.n + hyper.k), np.full(T, float(hyper.n))
    if not isinstance(hyper, BBHyper):
        raise InvalidParameter(f"expected a UEHyper or BBHyper, got {type(hyper).__name__}")
    beta, k = float(hyper.beta), float(hyper.k)
    k_seq = [float(hyper.k0)]
    tol = 4.0 * math.ulp(1.0)  # 4 machine epsilons
    for _ in range(T):
        prev = k_seq[-1]
        nxt = beta * prev + k
        # snap the recursion at its fixed point k/(1 - beta): at matched
        # hyperparameters k_t is exactly n + k, and a 1-ulp drift per
        # step would otherwise accumulate
        k_seq.append(prev if abs(nxt - prev) <= tol * abs(prev) else nxt)
    k_seq = np.array(k_seq)
    df_prior = hyper.beta * k_seq[:T]
    bad = df_prior <= hyper.q - 1
    if bad.any():
        t = int(np.argmax(bad)) + 1
        raise InvalidParameter(f"prior df {df_prior[t - 1]} <= q - 1 at t={t}")
    return hyper.b, k_seq, df_prior


def forward_filter(data: ReturnsSeries, hyper: UEHyper | BBHyper) -> FilterOutput:
    """The conjugate filter of the model ``hyper`` states, with y_t = r_t r_t'.

    D_t = discount D_{t-1} + y_t, the discount being lambda (UE) or b
    (BB); BB also runs k_t = beta k_{t-1} + k.  Matched UE and BB give
    the same output but for ``hyper``, the model every later step reads.
    """
    discount, k_seq, df_prior = _df_path(hyper, data.T)
    if data.q != hyper.q:
        raise DimensionMismatch(f"data dimension {data.q} != hyperparameter q {hyper.q}")
    g, s, logdet = _scale_pass(data.returns, hyper.d0, discount)
    log_forecast = _forecast_logdensity(s, logdet, df_prior, discount, data.q)
    return FilterOutput(
        hyper=hyper,
        g=g,
        k_seq=k_seq,
        df_prior=df_prior,
        log_forecast=log_forecast,
        loglik=float(log_forecast.sum()),
        discount=discount,
    )


def simulate(hyper: UEHyper | BBHyper, T: int, seed: int):
    """Generate returns and a matching precision sequence from the model ``hyper`` states.

    Each Phi_t is drawn from its exact one-step prior given the past
    returns (Wishart with the prior-at-t degrees of freedom and scale
    (discount * D_{t-1})^{-1}), then r_t | Phi_t ~ N(0, Phi_t^{-1}).
    The returns therefore follow the model's exact joint law (the
    product of the one-step forecast densities), and the recursion stays
    numerically bounded over long horizons because D_t tracks the data.
    Stepping the state equation directly instead is only viable for
    short horizons: the precision's log-determinant drifts, so condition
    numbers overflow double precision within a few hundred steps.
    """
    if T < 0:
        raise InvalidParameter(f"T must be >= 0, got {T}")
    disc, k_seq, df_prior = _df_path(hyper, T)
    rng = make_rng(seed)
    q = hyper.q
    rows = uchol(hyper.d0).tolist()  # R_0 with R_0' R_0 = D_0
    phis = np.empty((T + 1, q, q))
    # Phi_0 from Wishart(k_0, D_0^{-1}), with the filter's factor G_0 (G_0 G_0' = D_0)
    phis[0] = sample_wishart_bartlett(k_seq[0], tri_solve(rchol(hyper.d0), np.eye(q)), rng)
    returns = np.empty((T, q))
    sqrt_disc = math.sqrt(disc)
    with np.errstate(all="ignore"):  # a non-finite r_t or Phi_t is reported below
        for t, df in enumerate(df_prior.tolist(), start=1):
            # F-ordered, as uchol returns it: d_chol.T @ w rounds by memory order
            d_chol = np.array(rows, order="F")
            # All stochastic work happens in D_{t-1}-whitened coordinates,
            # where every quantity is O(1): with A the Bartlett factor of
            # Wishart(df, I), Phi_t = (A R^{-T})'(A R^{-T}) / disc is a
            # Wishart(df, (disc D_{t-1})^{-1}) draw and the standardized
            # residual is w = sqrt(disc) A^{-1} z.  No inverse factor of the
            # (possibly extremely ill-conditioned) D is formed.
            a = sample_bartlett_factor(q, df, rng)
            if not a.diagonal().all():  # a chi-square draw underflowed: A^{-1} z is infinite
                returns[t - 1] = np.inf
                break
            w = tri_solve(a, rng.standard_normal(q)) * sqrt_disc
            returns[t - 1] = d_chol.T @ w
            m = tri_solve(d_chol, a.T).T / sqrt_disc  # A R^{-T}
            phis[t] = m.T @ m
            _givens_update(rows, returns[t - 1].tolist(), sqrt_disc)
    bad = ~np.isfinite(returns).all(axis=1) | ~np.isfinite(phis[1:]).all(axis=(1, 2))
    if bad.any():
        raise InvalidParameter(f"simulated r_t or Phi_t overflows double precision at t={int(np.argmax(bad)) + 1}")
    return ReturnsSeries(returns), phis


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
    """
    n_grid = list(n_grid)
    lambda_grid = list(lambda_grid)
    if not n_grid or not lambda_grid:
        raise InvalidParameter("grids must be nonempty")
    q = data.q
    for n in n_grid:
        if not n > q - 1:
            raise InvalidParameter(f"grid point n={n} invalid for q={q}")
    for lam in lambda_grid:
        if not (0.0 < lam < 1.0):
            raise InvalidParameter(f"grid point lambda={lam} outside (0, 1)")
    n_col = np.asarray(n_grid, dtype=float)[:, None]
    surface = np.empty((len(n_grid), len(lambda_grid)))
    for j, lam in enumerate(lambda_grid):
        _, s, logdet = _scale_pass(data.returns, d0, lam)
        surface[:, j] = _forecast_logdensity(s, logdet, n_col, lam, q).sum(axis=1)
    best = np.unravel_index(np.argmax(surface), surface.shape)
    return float(n_grid[best[0]]), float(lambda_grid[best[1]]), surface


def constrained_lambda(n: float, k: float, q: int) -> float:
    """Discount implied by lambda^{-1} = 1 + k / (n - q - 1); needs n > q + 1."""
    if not n > q + 1:
        raise InvalidParameter(f"need n > q + 1, got n={n}, q={q}")
    return (n - q - 1.0) / (n - q - 1.0 + k)
