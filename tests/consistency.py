"""Reference computations the tests check the package against.

``joint_consistency_report`` runs the package's evolution and backward
steps on stacked draws and compares the two joints they must share
(criteria 7 and 8).  ``kummer_partner`` evaluates the other side of
Kummer's relation U(-1/2, 0, z) = z U(1/2, 2, z) by quadrature, apart
from the package's Bessel closed form (criterion 6).
``bb_backward_step_product`` is the BB backward step as a product and a
LAPACK solve, the form the package's closed form is checked against.
``rchol`` gives the filter's factor G of a dense D, G G' = D, and
``chol_update`` a rank-1 update of a stack of factors by Givens
rotations, the reference the filter's factor path is checked against;
``givens_chain`` is the plain loop over a flat list that the package's
generated per-q Givens chain must match bit for bit.
``factor_path_surface`` is the grid surface from each lambda's whole factor
path G_0..G_T, through the same reduction to S and B; ``grid_search``,
which keeps only G's diagonal, must match it byte for byte.  ``per_t_surface``
is the surface summed term by term over t, as a filter's ``loglik`` is, and
``surface_bound`` states how far ``grid_search`` may be from that sum.
``wishart_draws`` draws Wishart_q(df, P' P) matrices from the package's
Bartlett factors.  ``expected_utu_entrywise`` and
``example1_moments_entrywise`` state the closed-form moments entry by
entry over 1-based indices, as the paper writes them; the package's
matrix forms are checked against them.  ``exact_steps`` and
``exact_path_loglik`` are the exact-arithmetic oracle: the filter, both
backward recursions and a path's log likelihood in 60-digit ``decimal``.
``whitened_means`` gives the closed-form means of either model's smoothed paths in
coordinates whitened by the filter's factor, and ``whitened_mean_z`` checks a whole
ensemble of either sampler against them.
``sbc_pvalues`` calibrates either sampler's whole paths against a truth drawn
from either model's state equation (simulation-based calibration).
``row_table`` is the plain row-by-row CSV writer whose bytes the CLI's
column-wise table text must match.
``correlation_summary_solved`` is ``correlation_summary`` by its full-matrix
route: every F_t^{-1} from a stacked solve against the identity, each row's
norm folded over all q columns and ``np.quantile`` over the draws; the
package's triangle-only, one-sort route must match it bit for bit.
``tri_solve_stacked`` is the stacked triangular solve that keeps its rows in a
list and stacks them at the end, and ``bartlett_factor_rows`` the Bartlett
factor zeroed row by row with its diagonal set by fancy indexing; the
package's solve into one preallocated array and its masked, strided
Bartlett factor must match them bit for bit.
``coordinate_case`` is the series and hyperparameters that the filter's and
the samplers' coordinate-change tests map to L r_t and L D_0 L'.
"""

import math
from array import array
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.special import chdtrc

from wishartsv.errors import NotPositiveDefinite
from wishartsv.filtering import (
    ReturnsSeries,
    _df_path,
    _factor_path,
    _forecast_logdensity,
    _forecast_terms,
    _grid_surface,
    _initial_factor,
    _lambda_sums,
    forward_filter,
)
from wishartsv.matops import _row_norms, gram, tri_solve_stack, uchol
from wishartsv.randsamp import make_rng, sample_chi2, sample_wishart_factor
from wishartsv.smoother import bb_backward_step, sample_ensemble, ue_backward_step
from wishartsv.specfun import sqrt_beta_moment, tricomi_u_neg_half
from wishartsv.volproc import UEHyper, bb_evolve, ue_evolve


def wishart_draws(df: float, p: np.ndarray, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Wishart_q(df, P' P) draw(s) (W P)' W P, W from ``sample_wishart_factor``; (size, q, q) with ``size``."""
    p = np.asarray(p, dtype=float)
    return gram(sample_wishart_factor(p.shape[0], df, rng, size=size) @ p)


def rchol(a: np.ndarray) -> np.ndarray:
    """Upper-triangular G with G G' = a: J uchol(J a J)' J, J the reversal."""
    return uchol(np.asarray(a, dtype=float)[::-1, ::-1]).T[::-1, ::-1]


def chol_update(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of R' R + x x' by Givens-style rank-1 update.

    Works directly on the factor, so it stays accurate for matrices far
    too ill-conditioned to refactor densely.  A stack r (..., q, q) with
    x (..., q) applies the same rotations to every matrix at once, so a
    slice of a stack and the matrix alone give the same bits; the result
    keeps r's memory order.  The package's Givens loop makes the same
    rotations with rho from ``math.hypot``; here rho comes from
    ``np.hypot``.  A zero pivot gives NaN entries, not an error.
    """
    r = np.array(r, dtype=float)
    x = np.array(x, dtype=float)
    q = r.shape[-1]
    for i in range(q):
        rho = np.hypot(r[..., i, i], x[..., i])
        c = (r[..., i, i] / rho)[..., None]
        s = (x[..., i] / rho)[..., None]
        r[..., i, i] = rho
        if i + 1 < q:
            row = r[..., i, i + 1 :].copy()
            r[..., i, i + 1 :] = c * row + s * x[..., i + 1 :]
            x[..., i + 1 :] = c * x[..., i + 1 :] - s * row
    return r


def givens_chain(flat: array, xs, scale: float) -> array:
    """All factors of R_{i+1}' R_{i+1} = scale^2 R_i' R_i + x_i x_i', as one loop over a flat list.

    The package's generated Givens chain is checked against this loop bit
    for bit.  ``flat`` holds R_0 row-major, gets each R_{i+1} appended and
    is returned.  Each x in ``xs``, a list of q floats, is rotated into
    the factor and overwritten: Givens rotations, rho from ``math.hypot``,
    row i scaled just before its rotation.  ``xs`` may be a generator
    that reads the latest factor, ``flat[-q * q:]``, before it yields the
    next x.  Raises NotPositiveDefinite on a zero pivot.
    """
    q = math.isqrt(len(flat))
    r, hypot = flat[-q * q :].tolist(), math.hypot
    rows = [(i, i * (q + 1), range(i + 1, q)) for i in range(q)]  # i, where R[i, i] is, j > i
    for x in xs:
        for i, k, cols in rows:
            rii, xi = scale * r[k], x[i]
            rho = hypot(rii, xi)
            if rho <= 0.0:
                raise NotPositiveDefinite(f"zero pivot in rank-1 update at row {i}")
            c, s = rii / rho, xi / rho
            r[k] = rho
            for j in cols:
                k += 1  # where R[i, j] is
                rj, xj = scale * r[k], x[j]
                r[k] = c * rj + s * xj
                x[j] = c * xj - s * rj
        flat.extend(r)
    return flat


def factor_path_surface(data, d0: np.ndarray, n_grid, lambda_grid) -> np.ndarray:
    """The log marginal likelihood surface[i, j] at (n_grid[i], lambda_grid[j]), one factor path per lambda.

    Each lambda runs ``_factor_path`` over the whole series and reduces the
    diagonals of the (T+1, q, q) path it returns to S and B
    (``_lambda_sums``); ``_grid_surface`` then forms the whole surface.
    """
    g0 = _initial_factor(d0, data.q)
    sums = np.empty((2, len(lambda_grid)))
    for j, lam in enumerate(lambda_grid):
        sums[:, j] = _lambda_sums(np.diagonal(_factor_path(data.returns, g0, lam), axis1=1, axis2=2), lam)
    return _grid_surface(n_grid, lambda_grid, data.q, data.T, *sums)


def surface_bound(n, log_forecast) -> np.ndarray:
    """How far ``grid_search``'s cell at df n may be from sum_t log_forecast_t: 16 (n + 1) eps sum_t |log_forecast_t|.

    ``log_forecast`` holds the terms over t on its last axis.  The grid adds
    the same terms, read off the same bits of G's diagonal, in another
    grouping, so the two sums differ only in rounding.  Either route's
    largest rounding is in b_t (or their sum B), a difference of
    log-determinants that may be far larger than b_t itself (a D_0 far
    above the returns), and b_t enters with the weight (n + 1) / 2; where a
    log-determinant dominates, it is about twice its step's |log_forecast_t|.
    So each route is a few (n + 1) eps sum_t |log_forecast_t| from the exact
    sum.  The worst gap over 1600 random cases (q <= 5, T <= 400, return and
    D_0 scales 1e-150 to 1e150, lambda 0.001 to 0.999, n up to q + 29) was
    1.13 (n + 1) eps sum_t |log_forecast_t|.
    """
    return 16.0 * (np.asarray(n) + 1.0) * np.finfo(float).eps * np.abs(log_forecast).sum(axis=-1)


def per_t_surface(data, d0: np.ndarray, n_grid, lambda_grid) -> tuple[np.ndarray, np.ndarray]:
    """(surface, bound): the surface summed term by term over t, as a filter's ``loglik`` is, and its ``surface_bound``.

    surface[i, j] = sum_t log_forecast_t at (n_grid[i], lambda_grid[j]),
    each term ``_forecast_logdensity(*_forecast_terms(...))`` on a whole
    factor path, as ``FilterOutput.log_forecast`` computes it.
    """
    q, g0 = data.q, _initial_factor(d0, data.q)
    n_col = np.asarray(n_grid, dtype=float)[:, None]
    surface, bound = np.empty((2, len(n_grid), len(lambda_grid)))
    for j, lam in enumerate(lambda_grid):
        diag = np.diagonal(_factor_path(data.returns, g0, lam), axis1=1, axis2=2)
        log_forecast = _forecast_logdensity(*_forecast_terms(diag, lam), n_col, lam, q)
        surface[:, j], bound[:, j] = log_forecast.sum(axis=1), surface_bound(n_col[:, 0], log_forecast)
    return surface, bound


def row_table(path, header, *columns) -> None:
    """Write a CSV table from whole columns of equal length, one row at a time.

    Each field is written by ``str`` (an array column is read through
    ``tolist``), fields are joined by commas, and each row ends in CRLF.
    The CLI's column-wise ``_table_text`` must give the same bytes.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in zip(*cols, strict=True))


def expected_utu_entrywise(u: np.ndarray, n: float, k: float) -> np.ndarray:
    """E[U~' U~] of the BB diagonal-shrink step, one entry at a time (1-based i, j)."""
    q = u.shape[0]
    out = np.empty((q, q))
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            lo, hi = min(i, j), max(i, j)
            acc = sum(u[l - 1, i - 1] * u[l - 1, j - 1] for l in range(1, lo))
            if i == j:
                acc += (n - i + 1.0) * u[i - 1, i - 1] ** 2 / (n - i + 1.0 + k)
            else:
                acc += sqrt_beta_moment(lo, n, k) * u[lo - 1, lo - 1] * u[lo - 1, hi - 1]
            out[i - 1, j - 1] = acc
    return out


def example1_moments_entrywise(upsilon: np.ndarray, lam: float):
    """Example 1's (UE mean, UE variance, BB mean, BB variance), one entry at a time (1-based i, j)."""
    v = np.asarray(upsilon, dtype=float)
    q = v.shape[0]
    e_ue, v_ue, e_bb, v_bb = (np.empty((q, q)) for _ in range(4))
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            lo, hi = min(i, j), max(i, j)
            delta = 1.0 if i == j else 0.0
            s_full = sum(v[l - 1, i - 1] * v[l - 1, j - 1] for l in range(1, lo + 1))
            s_head = s_full - v[lo - 1, i - 1] * v[lo - 1, j - 1]
            e_ue[i - 1, j - 1] = lam * s_full + delta
            v_ue[i - 1, j - 1] = 1.0 + delta
            if i == j:
                e_bb[i - 1, j - 1] = lam * s_head + lam * v[i - 1, i - 1] ** 2 + 1.0
                v_bb[i - 1, j - 1] = 2.0
            else:
                vii = v[lo - 1, lo - 1]
                vij = v[lo - 1, hi - 1]
                h = np.sqrt(2.0 * lam) * vij * tricomi_u_neg_half(lam * vii**2 / 2.0)
                e_bb[i - 1, j - 1] = lam * s_head + h
                v_bb[i - 1, j - 1] = lam**2 * vij**2 * vii**2 + lam * vij**2 - h**2
    return e_ue, v_ue, e_bb, v_bb


def whitened_means(filt) -> np.ndarray:
    """The closed-form means of ``filt``'s smoothed paths in coordinates whitened by its factor G_t.

    With C_t = F_t G_t and A_t = G_{t+1}^{-1} G_t, UE's C_t' C_t has mean M_t,
    M_T = k_T I and M_t = lambda A_t' M_{t+1} A_t + I (E[W_T' W_T] = k_T I and
    E[z_t' z_t] = I); returns M, (T + 1, q, q).  BB's c_{t,ii}^2 has mean m_{t,i},
    m_{T,i} = k_T - i (0-based i, the chi-square df of the Bartlett diagonal) and
    m_{t,i} = (1 - beta) k_t + a_{t,i}^2 m_{t+1,i}, a_{t,i} = sqrt(b) (A_t)_ii; returns
    m, (T + 1, q).  So UE's E[Phi_t | D_T] = G_t^{-T} M_t G_t^{-1}, and BB's
    E[(Phi_t)_00 | D_T] = m_{t,0} / g_{t,00}^2, both upper factors having c_00 = f_00 g_00.
    """
    g, ue = filt.g, isinstance(filt.hyper, UEHyper)
    T, q, eye = g.shape[0] - 1, g.shape[-1], np.eye(g.shape[-1])
    a = np.swapaxes(tri_solve_stack(g[1:, None], np.swapaxes(g[:-1], -1, -2)), -1, -2)  # G_{t+1} A_t = G_t
    m = np.empty((T + 1, q, q) if ue else (T + 1, q))
    m[T] = filt.k_seq[T] * eye if ue else filt.k_seq[T] - np.arange(q)
    for t in range(T - 1, -1, -1):
        if ue:
            m[t] = filt.discount * a[t].T @ m[t + 1] @ a[t] + eye
        else:
            m[t] = (1.0 - filt.hyper.beta) * filt.k_seq[t] + filt.discount * np.diagonal(a[t]) ** 2 * m[t + 1]
    return m


def correlation_summary_solved(factors: np.ndarray, quantiles) -> np.ndarray:
    """``smoother.correlation_summary`` on full q x q stacks: V = F^{-1} by solve, ``_row_norms``, ``np.quantile``."""
    q = factors.shape[-1]
    iu, ju = np.triu_indices(q, k=1)
    v = tri_solve_stack(factors[..., None, :, :], np.eye(q), trans=True)  # row i solves F' x = e_i
    v /= _row_norms(v)[..., None]
    rho = np.empty((factors.shape[0], iu.size, factors.shape[1]))
    for p, (i, j) in enumerate(zip(iu, ju)):
        rho[:, p] = np.einsum("ntk,ntk->nt", v[..., i, :], v[..., j, :])
    return np.quantile(np.clip(rho, -1.0, 1.0), np.asarray(quantiles, dtype=float), axis=0)


def tri_solve_stacked(r: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """``matops.tri_solve_stack`` with its solved rows kept in a list and joined by ``np.stack``."""
    q = r.shape[-1]
    x = [None] * q
    for i in range(q) if trans else reversed(range(q)):
        acc = b[..., i]
        for j in range(i) if trans else range(i + 1, q):
            acc = acc - (r[..., j, i] if trans else r[..., i, j]) * x[j]
        x[i] = acc / r[..., i, i]
    return np.stack(x, axis=-1)


def bartlett_factor_rows(q: int, df: float, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """``randsamp.sample_bartlett_factor``'s draws, the strict lower triangle zeroed row by row."""
    u = rng.standard_normal((q, q) if size is None else (size, q, q))
    for i in range(1, q):
        u[..., i, :i] = 0.0
    idx = np.arange(q)
    u[..., idx, idx] = np.sqrt(rng.chisquare(df - idx, size=None if size is None else (size, q)))
    return u


def coordinate_case(q: int, T: int, seed: int):
    """(correlated returns, a UE hyperparameter set with a dense D_0): the series the coordinate-change tests map."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((q, q))
    data = ReturnsSeries(rng.standard_normal((T, q)) @ rng.standard_normal((q, q)))
    return data, UEHyper(q=q, k=1, n=q + 3.0, lam=0.9, d0=a @ a.T + 0.1 * np.eye(q))


def whitened_mean_z(filt, n_draws: int, seed: int) -> np.ndarray:
    """z-scores of ``sample_ensemble(filt, n_draws, seed)``'s whitened means against ``whitened_means``.

    Returns (mean - closed form) / standard error over t = 0..T and every UE
    entry i <= j of C_t' C_t or BB index i of c_{t,ii}^2.
    """
    ue, q = isinstance(filt.hyper, UEHyper), filt.g.shape[-1]
    c = sample_ensemble(filt, n_draws, seed) @ filt.g
    x = gram(c) if ue else np.diagonal(c, axis1=-2, axis2=-1) ** 2
    z = (x.mean(axis=0) - whitened_means(filt)) / (x.std(axis=0, ddof=1) / math.sqrt(n_draws))
    return z[(slice(None), *np.triu_indices(q))] if ue else z


def sbc_pvalues(truth, smoother, T: int, n_reps: int, seed: int, n_ranked: int = 19) -> np.ndarray:
    """Simulation-based calibration of whole smoothed paths (Talts et al. 2018): one p-value per statistic.

    ``truth`` and ``smoother`` are hyperparameter sets with one D_0 and discount.  Each
    of ``n_reps`` replications draws Phi_0 ~ Wishart(k_0, D_0^{-1}) and steps ``truth``'s
    state equation, ``ue_evolve`` or ``bb_evolve`` with p_prev = G_{t-1}^{-1}, drawing
    r_t ~ N(0, Phi_t^{-1}) and D_t = discount D_{t-1} + r_t r_t' as it goes; never
    ``simulate``, whose path comes from the sampler under test.  It then ranks the
    truth's Phi_00, Phi_0,q-1 and log|Phi| at t = 0, T // 2 and T among ``n_ranked``
    paths of ``sample_ensemble`` on ``smoother``'s filter.  Where the sampler draws
    the truth's law every rank is uniform on 0..n_ranked: returns the chi-square
    p-value of each statistic's rank counts, 9 of them.
    """
    rng, q, ts = make_rng(seed), truth.q, [0, T // 2, T]
    disc, k_seq, _ = _df_path(truth, T)

    def stats(phi):  # (..., T + 1, q, q) -> (..., 9)
        phi = phi[..., ts, :, :]
        return np.concatenate([phi[..., 0, 0], phi[..., 0, q - 1], np.linalg.slogdet(phi)[1]], axis=-1)

    ranks = np.empty((n_reps, 9), dtype=int)
    for m in range(n_reps):
        d, returns = truth.d0, []
        p = solve_triangular(rchol(d), np.eye(q))  # G_{t-1}^{-1}, so P' P = D_{t-1}^{-1}
        phi = [wishart_draws(k_seq[0], p, rng)]
        for t in range(1, T + 1):
            if isinstance(truth, UEHyper):
                phi.append(ue_evolve(phi[-1], truth, rng))
            else:
                phi.append(bb_evolve(phi[-1], k_seq[t - 1], truth, rng, p_prev=p))
            returns.append(solve_triangular(uchol(phi[-1]), rng.standard_normal(q)))  # covariance Phi_t^{-1}
            d = disc * d + np.outer(returns[-1], returns[-1])
            p = solve_triangular(rchol(d), np.eye(q))
        filt = forward_filter(ReturnsSeries(np.array(returns)), smoother)
        draws = gram(sample_ensemble(filt, n_ranked, int(rng.integers(2**32))))
        ranks[m] = (stats(draws) < stats(np.array(phi))).sum(axis=0)
    counts = (ranks[..., None] == np.arange(n_ranked + 1)).sum(axis=0)
    expected = n_reps / (n_ranked + 1)
    return chdtrc(n_ranked, ((counts - expected) ** 2 / expected).sum(axis=1))


def kummer_partner(z: float) -> float:
    """z U(1/2, 2, z) for z > 0 from U's integral representation, with t = s^2.

    z U(1/2, 2, z) = (2 z / sqrt(pi)) int_0^inf exp(-z s^2) sqrt(1 + s^2) ds.
    """
    val, _ = quad(lambda s: math.exp(-z * s * s) * math.sqrt(1.0 + s * s), 0.0, np.inf,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return 2.0 * z * val / math.sqrt(math.pi)


def bb_backward_step_product(f_next: np.ndarray, g_t: np.ndarray, b: float, theta: np.ndarray) -> np.ndarray:
    """The BB backward step as first stated: U = sqrt(b) F_{t+1} G_t, its diagonal
    raised to sqrt(u_ii^2 + theta_i), then F_t = U G_t^{-1} by a LAPACK solve."""
    u = math.sqrt(b) * f_next @ g_t
    idx = np.arange(g_t.shape[0])
    u[..., idx, idx] = np.sqrt(u[..., idx, idx] ** 2 + theta)
    return solve_triangular(g_t, u.reshape(-1, u.shape[-1]).T, trans="T").T.reshape(u.shape)  # U G^{-1}, row by row


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
    posterior Wishart(k_t, D_t^{-1}), then one evolution step.
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
        disc, beta, df_prior = hyper.lam, hyper.n / (hyper.n + hyper.k), hyper.n
    else:
        disc, beta, df_prior = hyper.b, hyper.beta, hyper.beta * k_t
    q = d_t.shape[0]
    g_t = rchol(d_t)  # G_t G_t' = D_t, as the filter builds it
    p_t = solve_triangular(g_t, np.eye(q))  # P_t = G_t^{-1}, P_t' P_t = D_t^{-1}

    # forward join: Phi_t | D_t, then one evolution step
    at = wishart_draws(k_t, p_t, rng, size=n_draws)
    anext = ue_evolve(at, hyper, rng) if model == "ue" else bb_evolve(at, k_t, hyper, rng, p_prev=p_t)

    # backward join: Phi_{t+1} from the one-step prior (under matching the
    # UE and BB priors coincide), then one backward step
    f_next = tri_solve_stack(g_t, sample_wishart_factor(q, df_prior, rng, size=n_draws), trans=True) / np.sqrt(disc)
    if backward_model == "ue":
        f_t = ue_backward_step(f_next, g_t, disc, sample_wishart_factor(q, 1, rng, size=n_draws)[:, 0])
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


# ---------------------------------------------------------------- exact-arithmetic oracle

DIGITS = 60


def _dec(x) -> list:
    """A float matrix as rows of Decimals, each converted exactly from binary."""
    return [[Decimal(v) for v in row] for row in np.asarray(x, dtype=float).tolist()]


def _chol(a: list) -> list:
    """Lower-triangular L with L L' = a."""
    q = len(a)
    low = [[Decimal(0)] * q for _ in range(q)]
    for j in range(q):
        low[j][j] = (a[j][j] - sum(low[j][k] ** 2 for k in range(j))).sqrt()
        for i in range(j + 1, q):
            low[i][j] = (a[i][j] - sum(low[i][k] * low[j][k] for k in range(j))) / low[j][j]
    return low


def _solve_upper(g: list, b: list) -> list:
    """x with g x = b by back-substitution, g upper-triangular and b a matrix."""
    x = [None] * len(g)
    for i in reversed(range(len(g))):
        x[i] = [(b[i][j] - sum(g[i][k] * x[k][j] for k in range(i + 1, len(g)))) / g[i][i]
                for j in range(len(b[0]))]
    return x


def _pi() -> Decimal:
    """pi to the context's precision (the recipe in the ``decimal`` documentation)."""
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    return +s


def exact_steps(returns: np.ndarray, d0: np.ndarray, discount: float, digits: int = DIGITS):
    """The filter's whitened step quantities, computed exactly to ``digits`` digits.

    D_t = discount D_{t-1} + r_t r_t' is formed densely and G_t = J chol(J D_t J) J,
    J the reversal, so G_t G_t' = D_t as the package stores it.  Returns (g, a, y,
    log_g): g[t] = G_t for t = 0..T, a[t] = A_t = G_{t+1}^{-1} G_t and y[t] = y_{t+1}
    = G_{t+1}^{-1} r_{t+1} for t = 0..T-1, and log_g[t] = log|G_t|, all as Decimals.
    """
    def rev(m):
        return [row[::-1] for row in m[::-1]]

    with localcontext() as ctx:
        ctx.prec = digits
        disc, d, q = Decimal(discount), _dec(d0), returns.shape[1]
        g = [rev(_chol(rev(d)))]
        for r in _dec(returns):
            d = [[disc * d[i][j] + r[i] * r[j] for j in range(q)] for i in range(q)]
            g.append(rev(_chol(rev(d))))
        a = [_solve_upper(g[t + 1], g[t]) for t in range(len(g) - 1)]
        y = [[x for (x,) in _solve_upper(g[t + 1], [[v] for v in r])] for t, r in enumerate(_dec(returns))]
        log_g = [sum(m[i][i].ln() for i in range(q)) for m in g]
    return g, a, y, log_g


def exact_path_loglik(steps, ue: bool, discount: float, w_T: np.ndarray, noise: np.ndarray,
                      digits: int = DIGITS) -> Decimal:
    """One path's log likelihood sum_t log N_q(r_t | 0, Phi_t^{-1}), exactly to ``digits`` digits.

    ``steps`` is ``exact_steps``' output and (w_T, noise) the path's own noise, as
    ``smoother._noise`` draws it.  The path is C_t = F_t G_t (C_t' C_t = G_t' Phi_t G_t)
    from C_T = W_T: UE runs C_t = chol(discount (C_{t+1} A_t)'(C_{t+1} A_t) + z_t' z_t),
    BB C_t = sqrt(discount) C_{t+1} A_t with each squared diagonal entry raised by
    theta_{t,i}.  The likelihood is sum_{t=1..T} [sum_i log c_{t,ii} - log|G_t| -
    |C_t y_t|^2 / 2] - (T q / 2) log 2 pi.
    """
    g, a, y, log_g = steps
    T, q = len(a), len(g[0])
    with localcontext() as ctx:
        ctx.prec = digits
        disc, c, total = Decimal(discount), _dec(w_T), Decimal(0)
        for t in range(T, 0, -1):
            cy = [sum(c[i][k] * y[t - 1][k] for k in range(i, q)) for i in range(q)]
            total += sum(c[i][i].ln() for i in range(q)) - log_g[t] - sum(v * v for v in cy) / 2
            ca = [[sum(c[i][k] * a[t - 1][k][j] for k in range(i, j + 1)) for j in range(q)] for i in range(q)]
            z = _dec([noise[t - 1]])[0]
            if ue:
                psi = [[disc * sum(ca[k][i] * ca[k][j] for k in range(q)) + z[i] * z[j] for j in range(q)]
                       for i in range(q)]
                c = [list(col) for col in zip(*_chol(psi))]  # upper, C' C = psi
            else:
                c = [[disc.sqrt() * v for v in row] for row in ca]
                for i in range(q):
                    c[i][i] = (c[i][i] ** 2 + z[i]).sqrt()
        return total - T * q * (2 * _pi()).ln() / 2
