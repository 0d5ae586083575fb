"""Command-line workflows: simulate, filter, grid-search, smooth, compare-plr,
compare-mixture, ppc.

The CLI fixes k = 1 (normal likelihoods for the returns); the library
paths support general k.  Every run writes a ``meta.json`` echoing the
configuration, seed, and package version, and per-time tables as plain
CSV so any plotting tool can consume them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .compare import (
    MixtureConfig,
    batch_means_se,
    log_plr,
    mixture_gibbs,
    ppc_intervals,
)
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NotPositiveDefinite,
    ParseError,
    WishartSVError,
)
from .filtering import (
    ReturnsSeries,
    bb_forward_filter,
    grid_search,
    ue_forward_filter,
)
from scipy.linalg import solve_triangular

from .matops import chol_update, sym, uchol
from .randsamp import (
    RNG_ALGORITHM,
    make_rng,
    sample_bartlett_factor,
    sample_wishart_bartlett,
)
from .smoother import correlation_summary, sample_ensemble
from .volproc import UEHyper, match_ue_to_bb


def load_returns_csv(path, q: int) -> ReturnsSeries:
    """Strictly parse a returns CSV: header, ISO timestamp column, q numeric columns."""
    path = Path(path)
    rows = []
    stamps = []
    try:
        fh = path.open(newline="")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read returns: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if len(header) != q + 1:
            raise DimensionMismatch(
                f"{path}: expected 1 timestamp + {q} return columns, found {len(header)} columns"
            )
        for line_no, row in enumerate(reader, start=2):
            if len(row) != q + 1:
                raise ParseError(f"{path}:{line_no}: expected {q + 1} fields, got {len(row)}")
            stamps.append(row[0])
            vals = []
            for col, cell in enumerate(row[1:], start=2):
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(f"{path}:{line_no}: column {col}: not a number: {cell!r}") from None
                if not np.isfinite(v):
                    raise ParseError(f"{path}:{line_no}: column {col}: non-finite value {cell!r}")
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return ReturnsSeries(np.array(rows), timestamps=tuple(stamps))


def d0_from_presample(presample: ReturnsSeries, ridge: float = 0.0):
    """(1/T0) sum r_t r_t' with an optional (or auto-escalated) ridge.

    Returns (d0, warning); the warning is set when a singular raw average
    had to be regularized with 1e-8 times the mean diagonal.
    """
    if ridge < 0:
        raise InvalidParameter(f"ridge must be >= 0, got {ridge}")
    r = presample.returns
    avg = sym(r.T @ r / r.shape[0])
    q = presample.q
    if ridge > 0:
        avg = avg + ridge * np.trace(avg) / q * np.eye(q)
    try:
        uchol(avg)
        return avg, None
    except NotPositiveDefinite:
        pass
    auto = 1e-8 * float(np.mean(avg.diagonal()))
    if auto <= 0:
        raise NotPositiveDefinite("presample average is singular and has no positive diagonal")
    avg = avg + auto * np.eye(q)
    uchol(avg)  # raises if still singular
    return avg, f"presample average was singular; added ridge {auto:.3e} * I"


def simulate(model: str, hyper, T: int, seed: int):
    """Generate returns and a matching precision sequence from the model.

    Each Phi_t is drawn from its exact one-step prior given the past
    returns (Wishart with the prior-at-t degrees of freedom and scale
    (k * discount * D_{t-1})^{-1}), then r_t | Phi_t ~ N(0, Phi_t^{-1}).
    The returns therefore follow the model's exact joint law (the
    product of the one-step forecast densities), and the recursion stays
    numerically bounded over long horizons because D_t tracks the data.
    Stepping the state equation directly instead is only viable for
    short horizons: the precision's log-determinant drifts, so condition
    numbers overflow double precision within a few hundred steps.
    """
    rng = make_rng(seed)
    if model == "ue":
        ue = hyper
        q, k = ue.q, ue.k
        d_chol = uchol(np.asarray(ue.d0, dtype=float))
        disc = ue.lam
        df0, df_prior_of = ue.n + ue.k, lambda k_t: ue.n
        k_t = ue.n + ue.k
    elif model == "bb":
        bb = hyper
        q, k = bb.q, bb.k
        d_chol = uchol(np.asarray(bb.d0, dtype=float))
        disc = bb.b
        df0, df_prior_of = bb.k0, lambda k_t: bb.beta * k_t
        k_t = bb.k0
    else:
        raise InvalidParameter(f"unknown model {model!r}")
    eye = np.eye(q)
    phis = np.empty((T + 1, q, q))
    # the filter's factor G_0 (G_0 G_0' = k D_0); G_0^{-1} is the upper factor of (k D_0)^{-1}
    g0 = np.sqrt(k) * uchol(np.asarray(hyper.d0, dtype=float)[::-1, ::-1]).T[::-1, ::-1]
    phis[0] = sample_wishart_bartlett(df0, solve_triangular(g0, eye, lower=False), rng)
    returns = np.empty((T, q))
    sqrt_disc = np.sqrt(disc)
    for t in range(1, T + 1):
        df = df_prior_of(k_t)
        if df <= q - 1:
            raise InvalidParameter(f"prior df {df} <= q - 1 at t={t}")
        # All stochastic work happens in D_{t-1}-whitened coordinates,
        # where every quantity is O(1): with A the Bartlett factor of
        # Wishart(df, I), Phi_t = (A R^{-T})'(A R^{-T}) / (k * disc) is a
        # Wishart(df, (k disc D_{t-1})^{-1}) draw and the standardized
        # residual is w = sqrt(disc) A^{-1} z / sqrt(...).  No inverse
        # factor of the (possibly extremely ill-conditioned) D is formed.
        a = sample_bartlett_factor(q, df, rng)
        w = solve_triangular(a, rng.standard_normal(q), lower=False) * np.sqrt(k * disc)
        returns[t - 1] = d_chol.T @ w
        r_inv_t = solve_triangular(d_chol, eye, trans="T", lower=False)  # R^{-T}
        m = a @ r_inv_t / np.sqrt(k * disc)
        phis[t] = m.T @ m
        d_chol = chol_update(sqrt_disc * d_chol, returns[t - 1])
        if model == "bb":
            k_t = bb.beta * k_t + bb.k
    series = ReturnsSeries(returns) if T > 0 else ReturnsSeries(np.empty((0, q)))
    return series, phis


# ---------------------------------------------------------------- output


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_meta(outdir: Path, cfg: dict, extra: dict | None = None, t0: float | None = None):
    meta = {
        "config": cfg,
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "wall_time_s": None if t0 is None else round(time.time() - t0, 3),
    }
    if extra:
        meta.update(extra)
    (outdir / "meta.json").write_text(json.dumps(meta, indent=2, default=_jsonable) + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _flat_header(prefix: str, q: int):
    return [f"{prefix}_{i + 1}{j + 1}" for i in range(q) for j in range(q)]


# ------------------------------------------------------------- commands


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ParseError(f"{args.config}: cannot read config: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.config}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from None
        if not isinstance(cfg, dict):
            raise ParseError(f"{args.config}: config must be a JSON object")
    for key in ("seed", "model", "draws", "out"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg.setdefault("seed", 0)
    cfg.setdefault("out", "out")
    return cfg


def _required(cfg: dict, key: str):
    try:
        return cfg[key]
    except KeyError:
        raise InvalidParameter(f"config is missing required key {key!r}") from None


def _hyper_from_cfg(cfg: dict, q: int, d0: np.ndarray):
    n = _required(cfg, "n")
    lam = _required(cfg, "lambda")
    ue = UEHyper(q=q, k=1, n=n, lam=lam, d0=d0)
    return ue, match_ue_to_bb(ue)


def _d0_from_cfg(cfg: dict, q: int):
    if "d0" in cfg:
        return np.asarray(cfg["d0"], dtype=float), None
    if "presample_csv" in cfg:
        pre = load_returns_csv(cfg["presample_csv"], q)
        return d0_from_presample(pre, cfg.get("ridge", 0.0))
    return np.eye(q), None


def _load_data(cfg: dict) -> ReturnsSeries:
    return load_returns_csv(_required(cfg, "data_csv"), _required(cfg, "q"))


def cmd_simulate(cfg: dict, outdir: Path) -> dict:
    q = _required(cfg, "q")
    d0, warning = _d0_from_cfg(cfg, q)
    ue, bb = _hyper_from_cfg(cfg, q, d0)
    model = cfg.get("model", "ue")
    if model not in ("ue", "bb"):
        raise InvalidParameter(f"simulate draws from one model, ue or bb; got {model!r}")
    series, phis = simulate(model, ue if model == "ue" else bb, _required(cfg, "T"), cfg["seed"])
    _write_csv(
        outdir / "returns.csv",
        ["t"] + [f"r{i + 1}" for i in range(q)],
        [[t + 1] + list(series.returns[t]) for t in range(series.T)],
    )
    _write_csv(
        outdir / "true_path.csv",
        ["t"] + _flat_header("phi", q),
        [[t] + list(phis[t].ravel()) for t in range(phis.shape[0])],
    )
    return {"T": series.T, "q": q, "model": model, "warning": warning}


def _filter_pair(cfg: dict, data: ReturnsSeries):
    d0, warning = _d0_from_cfg(cfg, data.q)
    ue, bb = _hyper_from_cfg(cfg, data.q, d0)
    model = cfg.get("model", "matched")
    filt_u = ue_forward_filter(data, ue) if model in ("ue", "matched") else None
    filt_b = bb_forward_filter(data, bb) if model in ("bb", "matched") else None
    if model == "matched":
        # guard the hyperparameter-matching wiring end to end
        gap = np.abs(filt_u.log_forecast - filt_b.log_forecast).max()
        if gap > 1e-8:
            raise WishartSVError(f"matched UE/BB forecast densities disagree by {gap}")
    return ue, bb, filt_u, filt_b, warning


def cmd_filter(cfg: dict, outdir: Path) -> dict:
    data = _load_data(cfg)
    ue, bb, filt_u, filt_b, warning = _filter_pair(cfg, data)
    summaries = {}
    for tag, filt in (("ue", filt_u), ("bb", filt_b)):
        if filt is None:
            continue
        q = data.q
        d = filt.g @ np.swapaxes(filt.g, 1, 2) / filt.k_obs  # dense D_t, for the table only
        rows = [
            [t, filt.k_seq[t]]
            + list(d[t].ravel())
            + ([filt.log_forecast[t - 1]] if t >= 1 else [""])
            for t in range(data.T + 1)
        ]
        _write_csv(outdir / f"filtered_{tag}.csv", ["t", "k_t"] + _flat_header("d", q) + ["log_forecast"], rows)
        summaries[tag] = {"loglik": filt.loglik}
    return {"warning": warning, "models": summaries}


# default (n, lambda) grid: n in 3..20, lambda in 0.600..0.990 step 0.001
DEFAULT_N_GRID = list(range(3, 21))
DEFAULT_LAMBDA_GRID = [round(0.600 + 0.001 * i, 3) for i in range(391)]


def cmd_grid_search(cfg: dict, outdir: Path) -> dict:
    data = _load_data(cfg)
    d0, warning = _d0_from_cfg(cfg, data.q)
    n_grid = cfg.get("n_grid") or DEFAULT_N_GRID
    lambda_grid = cfg.get("lambda_grid") or DEFAULT_LAMBDA_GRID
    n_star, lambda_star, surface = grid_search(data, d0, n_grid, lambda_grid)
    rows = [
        [n, lam, surface[i, j]]
        for i, n in enumerate(n_grid)
        for j, lam in enumerate(lambda_grid)
    ]
    _write_csv(outdir / "surface.csv", ["n", "lambda", "loglik"], rows)
    return {
        "n_star": n_star,
        "lambda_star": lambda_star,
        "loglik_star": float(surface.max()),
        "warning": warning,
    }


def cmd_smooth(cfg: dict, outdir: Path) -> dict:
    data = _load_data(cfg)
    ue, bb, filt_u, filt_b, warning = _filter_pair(cfg, data)
    n_draws = cfg.get("draws", 100)
    quantiles = cfg.get("quantiles", [0.025, 0.5, 0.975])
    out = {}
    for tag, filt, hyper in (("ue", filt_u, ue), ("bb", filt_b, bb)):
        if filt is None:
            continue
        ens = sample_ensemble(filt, hyper, n_draws, cfg["seed"])
        curves = correlation_summary(ens, quantiles)
        rows = [
            [t, i + 1, j + 1] + list(curves[:, p, t])
            for p, (i, j) in enumerate(zip(*np.triu_indices(data.q, k=1)))
            for t in range(data.T + 1)
        ]
        if rows:
            _write_csv(
                outdir / f"correlations_{tag}.csv",
                ["t", "i", "j"] + [f"q{qt}" for qt in quantiles],
                rows,
            )
        out[tag] = {"draws": n_draws}
    return {"warning": warning, "models": out}


def cmd_compare_plr(cfg: dict, outdir: Path) -> dict:
    data = _load_data(cfg)
    ue, bb, filt_u, filt_b, warning = _filter_pair({**cfg, "model": "matched"}, data)
    n_draws = cfg.get("draws", 100)
    ens_u = sample_ensemble(filt_u, ue, n_draws, cfg["seed"])
    ens_b = sample_ensemble(filt_b, bb, n_draws, cfg["seed"] + 1)
    value = log_plr(ens_u, ens_b, data)
    return {"log_plr": value, "draws": n_draws, "warning": warning}


def cmd_compare_mixture(cfg: dict, outdir: Path) -> dict:
    data = _load_data(cfg)
    d0, warning = _d0_from_cfg(cfg, data.q)
    ue, bb = _hyper_from_cfg(cfg, data.q, d0)
    mix = MixtureConfig(
        a0=cfg.get("a0", 1.0),
        b0=cfg.get("b0", 1.0),
        iterations=cfg.get("draws", 10_000),
        burn_in=cfg.get("burn_in"),
        seed=cfg["seed"],
    )
    trace = mixture_gibbs(data, ue, bb, mix)
    _write_csv(outdir / "alpha_trace.csv", ["iteration", "alpha"],
               [[i, a] for i, a in enumerate(trace.alpha)])
    n_batches = cfg.get("batches", 50)
    below = (trace.alpha < 0.5).astype(float)
    return {
        "alpha_mean": float(trace.alpha.mean()),
        "alpha_se": batch_means_se(trace.alpha, n_batches),
        "p_alpha_below_half": float(below.mean()),
        "p_alpha_below_half_se": batch_means_se(below, n_batches),
        "warning": warning,
    }


def cmd_ppc(cfg: dict, outdir: Path) -> dict:
    data = _load_data(cfg)
    ue, bb, filt_u, filt_b, warning = _filter_pair(cfg, data)
    level = cfg.get("level", 0.95)
    out = {}
    for tag, filt in (("ue", filt_u), ("bb", filt_b)):
        if filt is None:
            continue
        lengths, coverage = ppc_intervals(filt, data, level)
        rows = [
            [t + 1] + list(lengths[t]) + [coverage[t]]
            for t in range(data.T)
        ]
        _write_csv(
            outdir / f"ppc_{tag}.csv",
            ["t"] + [f"length_{i + 1}" for i in range(data.q)] + ["cumulative_coverage"],
            rows,
        )
        out[tag] = {"terminal_coverage": float(coverage[-1])}
    return {"level": level, "warning": warning, "models": out}


COMMANDS = {
    "simulate": cmd_simulate,
    "filter": cmd_filter,
    "grid-search": cmd_grid_search,
    "smooth": cmd_smooth,
    "compare-plr": cmd_compare_plr,
    "compare-mixture": cmd_compare_mixture,
    "ppc": cmd_ppc,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wishartsv",
        description="Wishart stochastic-volatility filtering, smoothing, and model comparison",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file with RunConfig fields")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--model", choices=["ue", "bb", "matched"], help="model selector")
        p.add_argument("--draws", type=int, help="ensemble size / chain length")
        p.add_argument("--out", help="output directory")
    return parser


def run_command(command: str, cfg: dict) -> dict:
    """Dispatch a command; returns the summary dict written to results.json."""
    outdir = Path(cfg.get("out", "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    summary = COMMANDS[command](cfg, outdir)
    summary = {"command": command, "seed": cfg["seed"], **summary}
    (outdir / "results.json").write_text(json.dumps(summary, indent=2, default=_jsonable) + "\n")
    _write_meta(outdir, cfg, extra={"command": command}, t0=t0)
    return summary


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        run_command(args.command, cfg)
    except WishartSVError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
