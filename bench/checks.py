"""Output checks: dense numpy references and properties the method must have.

None of this imports the package under test.  Each check reads the files
a command wrote and raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import gammaln
from scipy.stats import beta as beta_dist
from scipy.stats import t as student_t

REL = 1e-9  # dense reference vs factor-form program on well-conditioned inputs
TAIL = 1e-7  # per-quantile false-alarm probability of the Monte Carlo checks
REF_DRAWS = 20_000


class CheckFailed(Exception):
    pass


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(a, b, rel: float, what: str) -> None:
    """Normwise relative error max|a - b| / max|b| within ``rel``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    require(np.all(np.isfinite(a)), f"{what}: non-finite values")
    err = float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300)) if a.size else 0.0
    require(err <= rel, f"{what}: relative error {err:.3e} > {rel:.0e}")


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and a float array; empty cells read as NaN."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    body = [[float(x) if x != "" else math.nan for x in row] for row in rows[1:]]
    return rows[0], np.array(body, dtype=float)


def read_results(outdir: Path) -> dict:
    return json.loads((outdir / "results.json").read_text())


# ------------------------------------------------------------ references


def presample_d0(presample: np.ndarray) -> np.ndarray:
    return presample.T @ presample / presample.shape[0]


def dense_pass(returns: np.ndarray, d0: np.ndarray, lam: float):
    """Dense recursion D_t = lam D_{t-1} + r_t r_t'.

    Returns (s, logdet, d_prev_diag, d_last): s_t = r_t' D_{t-1}^{-1} r_t
    by ``solve``, log|D_{t-1}| by ``slogdet``, diag(D_{t-1}) and D_T.
    """
    T, q = returns.shape
    s, logdet, diag = np.empty(T), np.empty(T), np.empty((T, q))
    d = d0.copy()
    for t, r in enumerate(returns):
        sign, logdet[t] = np.linalg.slogdet(d)
        require(sign > 0, f"dense reference: D_{t} is not positive definite")
        s[t] = r @ np.linalg.solve(d, r)
        diag[t] = d.diagonal()
        d = lam * d + np.outer(r, r)
    return s, logdet, diag, d


def mvt_logpdf(s, logdet, n: float, lam: float, q: int):
    """Multivariate-t log density with nu = n + 1 - q and shape lam D / nu.

    In the standard parametrisation t_nu(0, S): log Gamma((nu+q)/2) -
    log Gamma(nu/2) - q/2 log(nu pi) - 1/2 log|S| - (nu+q)/2 log(1 + r'S^{-1}r/nu).
    """
    nu = n + 1.0 - q
    log_s = q * np.log(lam / nu) + logdet
    return (
        gammaln((nu + q) / 2.0)
        - gammaln(nu / 2.0)
        - 0.5 * q * np.log(nu * np.pi)
        - 0.5 * log_s
        - 0.5 * (nu + q) * np.log1p(s / lam)
    )


def terminal_rho_reference(d_last: np.ndarray, df: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted draws of every rho_ij(Sigma_T), Phi_T ~ Wishart(df, D_T^{-1}).

    With D_T = R'R and G = A'A ~ Wishart(df, I) (Bartlett A), Phi_T =
    R^{-1} G R^{-T}, so Sigma_T = B'B with B = A^{-T} R.  Shape (pairs, M).
    """
    q = d_last.shape[0]
    idx = np.arange(q)
    a = np.triu(rng.standard_normal((REF_DRAWS, q, q)), k=1)
    a[:, idx, idx] = np.sqrt(rng.chisquare(df - idx, size=(REF_DRAWS, q)))
    b = np.linalg.solve(np.swapaxes(a, 1, 2), np.linalg.cholesky(d_last).T)
    sigma = np.swapaxes(b, 1, 2) @ b
    sd = np.sqrt(sigma[:, idx, idx])
    rho = [sigma[:, i, j] / (sd[:, i] * sd[:, j]) for i in range(q) for j in range(i + 1, q)]
    return np.sort(np.array(rho), axis=1)


def quantile_band(p: float, n_draws: int) -> tuple[float, float]:
    """Band for F(x_hat_p), x_hat_p numpy's linear sample quantile of N draws.

    x_hat_p lies between order statistics j+1 and j+2 (1-based) with
    j = floor((N-1)p); F of the k-th order statistic is Beta(k, N+1-k).
    """
    j = int(math.floor((n_draws - 1) * p))
    k_hi = min(j + 2, n_draws)
    lo = beta_dist.ppf(TAIL, j + 1, n_draws - j)
    hi = beta_dist.ppf(1.0 - TAIL, k_hi, n_draws + 1 - k_hi)
    return float(lo), float(hi)


def batch_means_se(x: np.ndarray, n_batches: int) -> float:
    size = x.size // n_batches
    means = x[: n_batches * size].reshape(n_batches, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


# ---------------------------------------------------------------- checks


def check_grid(outdir: Path, returns, presample, n_grid, lambda_grid, cache: dict) -> None:
    """Whole surface against the dense reference; argmax under the tie-break."""
    q = returns.shape[1]
    header, rows = read_csv(outdir / "surface.csv")
    require(header == ["n", "lambda", "loglik"], f"surface.csv header {header}")
    shape = (len(n_grid), len(lambda_grid))
    require(rows.shape == (shape[0] * shape[1], 3), f"surface.csv has shape {rows.shape}")
    grid_n, grid_l = np.meshgrid(n_grid, lambda_grid, indexing="ij")
    require(np.array_equal(rows[:, 0], grid_n.ravel()) and np.array_equal(rows[:, 1], grid_l.ravel()),
            "surface.csv rows are not the (n, lambda) grid in row-major order")
    surface = rows[:, 2].reshape(shape)
    if "surface" not in cache:
        d0 = presample_d0(presample)
        ref = np.empty(shape)
        for j, lam in enumerate(lambda_grid):
            s, logdet, _, _ = dense_pass(returns, d0, lam)
            for i, n in enumerate(n_grid):
                ref[i, j] = mvt_logpdf(s, logdet, n, lam, q).sum()
        cache["surface"] = ref
    ref = cache["surface"]
    close(surface, ref, REL, "surface vs dense reference")

    res = read_results(outdir)
    i, j = np.unravel_index(np.argmax(surface), shape)  # first maximum: smallest n, then lambda
    require(res["n_star"] == n_grid[i] and res["lambda_star"] == lambda_grid[j],
            f"(n*, lambda*) = ({res['n_star']}, {res['lambda_star']}) is not the surface argmax "
            f"({n_grid[i]}, {lambda_grid[j]})")
    require(res["loglik_star"] == surface[i, j], "loglik_star differs from the surface maximum")
    require(surface[i, j] >= ref.max() - REL * abs(ref.max()),
            "the program's argmax is not a maximum of the reference surface")


def check_filter(outdir: Path, returns, presample, n, lam, cache: dict) -> None:
    """Matched UE/BB filters: logliks, per-step forecast densities and D_T."""
    q = returns.shape[1]
    ref = filter_reference(returns, presample, lam, cache)
    logf = mvt_logpdf(ref["s"], ref["logdet"], n, lam, q)
    models = read_results(outdir)["models"]
    require(set(models) == {"ue", "bb"}, f"filter reported models {sorted(models)}")
    close(models["ue"]["loglik"], models["bb"]["loglik"], REL, "UE vs BB filtered loglik")
    for tag in ("ue", "bb"):
        close(models[tag]["loglik"], logf.sum(), REL, f"{tag} loglik vs dense reference")
        header, rows = read_csv(outdir / f"filtered_{tag}.csv")
        require(rows.shape == (returns.shape[0] + 1, 2 + q * q + 1), f"filtered_{tag}.csv shape {rows.shape}")
        close(rows[1:, -1], logf, REL, f"filtered_{tag}.csv log_forecast vs dense reference")
        close(rows[-1, 2:-1], ref["d_last"].ravel(), REL, f"filtered_{tag}.csv D_T vs dense reference")


def check_ppc(outdir: Path, returns, presample, n, lam, level, cache: dict) -> None:
    """UE and BB intervals are identical and match t quantiles on dense D_{t-1}."""
    T, q = returns.shape
    ref = filter_reference(returns, presample, lam, cache)
    nu = n + 1.0 - q
    half = student_t.ppf(0.5 + level / 2.0, df=nu) * np.sqrt(lam * ref["diag"] / nu)
    hits = (np.abs(returns) <= half).sum(axis=1)
    coverage = np.cumsum(hits) / (q * np.arange(1, T + 1))
    _, ue = read_csv(outdir / "ppc_ue.csv")
    _, bb = read_csv(outdir / "ppc_bb.csv")
    require(ue.shape == (T, q + 2), f"ppc_ue.csv shape {ue.shape}")
    close(bb, ue, 1e-12, "ppc_bb.csv vs ppc_ue.csv")
    close(ue[:, 1:-1], 2.0 * half, REL, "interval lengths vs dense reference")
    close(ue[:, -1], coverage, 1e-12, "cumulative coverage vs recomputation")


def check_correlations(outdir: Path, tags, T: int, q: int, quantiles) -> dict:
    """Quantile curves are complete, finite, in [-1, 1] and ordered by level."""
    curves = {}
    for tag in tags:
        header, rows = read_csv(outdir / f"correlations_{tag}.csv")
        pairs = q * (q - 1) // 2
        require(rows.shape == (pairs * (T + 1), 3 + len(quantiles)), f"correlations_{tag}.csv shape {rows.shape}")
        vals = rows[:, 3:]
        require(np.all(np.isfinite(vals)), f"correlations_{tag}.csv has non-finite quantiles")
        require(np.all(np.abs(vals) <= 1.0), f"correlations_{tag}.csv has |rho| > 1")
        require(np.all(np.diff(vals, axis=1) >= 0.0), f"correlations_{tag}.csv quantiles not ordered by level")
        curves[tag] = vals.reshape(pairs, T + 1, len(quantiles))
    return curves


def check_smooth(outdir: Path, returns, presample, n, lam, draws, quantiles, seed, cache: dict) -> None:
    """Curve properties, plus terminal quantiles of both models within Monte
    Carlo error of an independent draw from the shared filtered posterior."""
    T, q = returns.shape
    curves = check_correlations(outdir, ("ue", "bb"), T, q, quantiles)
    if "rho_T" not in cache:
        ref = filter_reference(returns, presample, lam, cache)
        cache["rho_T"] = terminal_rho_reference(ref["d_last"], n + 1.0, np.random.default_rng([seed, 99]))
    rho_ref = cache["rho_T"]
    for k, p in enumerate(quantiles):
        lo, hi = quantile_band(p, draws)
        for tag in ("ue", "bb"):
            u = np.array([np.searchsorted(rho_ref[m], curves[tag][m, T, k]) for m in range(rho_ref.shape[0])])
            u = u / rho_ref.shape[1]
            require(np.all((u >= lo - 0.02) & (u <= hi + 0.02)),
                    f"{tag} terminal q{p} outside Monte Carlo band [{lo:.3g}, {hi:.3g}] of the reference: {u}")


def check_plr(outdir: Path, draws: int) -> None:
    res = read_results(outdir)
    require(math.isfinite(res["log_plr"]), f"log_plr is not finite: {res['log_plr']}")
    require(res["draws"] == draws, f"compare-plr used {res['draws']} draws, asked {draws}")


def check_mixture(outdir: Path, iterations: int, burn_in: int, n_batches: int) -> None:
    """alpha in (0, 1); mean, SE and P(alpha < 1/2) match a recomputation."""
    _, rows = read_csv(outdir / "alpha_trace.csv")
    kept = iterations - burn_in
    require(rows.shape == (kept, 2), f"alpha_trace.csv shape {rows.shape}, expected ({kept}, 2)")
    require(np.array_equal(rows[:, 0], np.arange(kept)), "alpha_trace.csv iteration column")
    alpha = rows[:, 1]
    require(np.all((alpha > 0.0) & (alpha < 1.0)), "alpha outside (0, 1)")
    below = (alpha < 0.5).astype(float)
    res = read_results(outdir)
    close(res["alpha_mean"], alpha.mean(), 1e-12, "alpha_mean")
    close(res["alpha_se"], batch_means_se(alpha, n_batches), REL, "alpha_se")
    close(res["p_alpha_below_half"], below.mean(), 1e-12, "p_alpha_below_half")
    close(res["p_alpha_below_half_se"], batch_means_se(below, n_batches), REL, "p_alpha_below_half_se")


def filter_reference(returns, presample, lam, cache: dict) -> dict:
    if "filter" not in cache:
        s, logdet, diag, d_last = dense_pass(returns, presample_d0(presample), lam)
        cache["filter"] = {"s": s, "logdet": logdet, "diag": diag, "d_last": d_last}
    return cache["filter"]
