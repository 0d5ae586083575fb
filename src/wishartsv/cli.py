"""Command-line workflows: simulate, filter, grid-search, smooth, compare-plr,
compare-mixture, ppc.

Every model has k = 1 (one normal return vector per observation), so
the config has no k.  Every run writes a ``meta.json`` echoing the
configuration, seed, and package version, and per-time tables as plain
CSV so any plotting tool can consume them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
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
    path_loglik,
    ppc_intervals,
)
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NotPositiveDefinite,
    ParseError,
    WishartSVError,
)
from .filtering import ReturnsSeries, forward_filter, grid_search, simulate
from .matops import sym, uchol
from .randsamp import RNG_ALGORITHM
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
                if not math.isfinite(v):
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
    _check_types(cfg)
    return cfg


def _number(v) -> bool:
    # json reads NaN, Infinity and -Infinity as floats; none is a valid value
    return (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and math.isfinite(v))


def _numbers(v) -> bool:
    return isinstance(v, list) and all(map(_number, v))


# the JSON type each config field must have, as (description, check)
_FIELD_TYPES = {
    **dict.fromkeys(("q", "T", "draws", "burn_in", "batches"),
                    ("an integer", lambda v: _number(v) and isinstance(v, int))),
    "seed": ("a non-negative integer", lambda v: _number(v) and isinstance(v, int) and v >= 0),
    **dict.fromkeys(("n", "lambda", "ridge", "a0", "b0", "level"), ("a finite number", _number)),
    **dict.fromkeys(("data_csv", "presample_csv", "out"), ("a string", lambda v: isinstance(v, str))),
    "model": ("one of 'ue', 'bb', 'matched'", lambda v: v in ("ue", "bb", "matched")),
    **dict.fromkeys(("n_grid", "lambda_grid", "quantiles"), ("a list of finite numbers", _numbers)),
    "d0": ("a square list of lists of finite numbers",
           lambda v: isinstance(v, list) and all(_numbers(row) and len(row) == len(v) for row in v)),
}


def _check_types(cfg: dict) -> None:
    for key, val in cfg.items():
        if key not in _FIELD_TYPES:
            raise InvalidParameter(f"unknown config field {key!r}")
        if not _FIELD_TYPES[key][1](val):
            raise InvalidParameter(f"config field {key!r} must be {_FIELD_TYPES[key][0]}, got {val!r}")
    # D_0 comes from d0, from presample_csv (with an optional ridge), or is I
    if "d0" in cfg and "presample_csv" in cfg:
        raise InvalidParameter("config fields 'd0' and 'presample_csv' both set D_0; give one")
    if "ridge" in cfg and "presample_csv" not in cfg:
        raise InvalidParameter("config field 'ridge' applies only with 'presample_csv'")


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
    series, phis = simulate(ue if model == "ue" else bb, _required(cfg, "T"), cfg["seed"])
    _write_csv(
        outdir / "returns.csv",
        ["t"] + [f"r{i + 1}" for i in range(q)],
        [[t] + r for t, r in enumerate(series.returns.tolist(), start=1)],
    )
    _write_csv(
        outdir / "true_path.csv",
        ["t"] + _flat_header("phi", q),
        [[t] + phi for t, phi in enumerate(phis.reshape(-1, q * q).tolist())],
    )
    return {"T": series.T, "q": q, "model": model, "warning": warning}


def _filter_pair(cfg: dict, data: ReturnsSeries):
    d0, warning = _d0_from_cfg(cfg, data.q)
    ue, bb = _hyper_from_cfg(cfg, data.q, d0)
    model = cfg.get("model", "matched")
    filt_u = forward_filter(data, ue) if model in ("ue", "matched") else None
    filt_b = forward_filter(data, bb) if model in ("bb", "matched") else None
    if model == "matched":
        # guard the hyperparameter-matching wiring end to end
        gap = np.abs(filt_u.log_forecast - filt_b.log_forecast).max()
        if gap > 1e-8:
            raise WishartSVError(f"matched UE/BB forecast densities disagree by {gap}")
    return filt_u, filt_b, warning


def cmd_filter(cfg: dict, outdir: Path) -> dict:
    data = _load_data(cfg)
    filt_u, filt_b, warning = _filter_pair(cfg, data)
    summaries = {}
    for tag, filt in (("ue", filt_u), ("bb", filt_b)):
        if filt is None:
            continue
        q = data.q
        d = filt.g @ np.swapaxes(filt.g, 1, 2)  # dense D_t, for the table only
        rows = [
            [t, k, *d_t, log_f]
            for t, (k, d_t, log_f) in enumerate(
                zip(filt.k_seq.tolist(), d.reshape(-1, q * q).tolist(), [""] + filt.log_forecast.tolist())
            )
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
    n_grid = cfg.get("n_grid", DEFAULT_N_GRID)
    lambda_grid = cfg.get("lambda_grid", DEFAULT_LAMBDA_GRID)
    n_star, lambda_star, surface = grid_search(data, d0, n_grid, lambda_grid)
    rows = [
        [n, lam, value]
        for n, surface_row in zip(n_grid, surface.tolist())
        for lam, value in zip(lambda_grid, surface_row)
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
    filt_u, filt_b, warning = _filter_pair(cfg, data)
    n_draws = cfg.get("draws", 100)
    quantiles = cfg.get("quantiles", [0.025, 0.5, 0.975])
    out = {}
    for tag, filt in (("ue", filt_u), ("bb", filt_b)):
        if filt is None:
            continue
        ens = sample_ensemble(filt, n_draws=n_draws, seed=cfg["seed"])
        curves = correlation_summary(ens, quantiles).transpose(1, 2, 0).tolist()  # [pair][t][level]
        rows = [
            [t, i + 1, j + 1] + levels
            for i, j, pair in zip(*np.triu_indices(data.q, k=1), curves)
            for t, levels in enumerate(pair)
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
    filt_u, filt_b, warning = _filter_pair({**cfg, "model": "matched"}, data)
    n_draws = cfg.get("draws", 100)
    ens_u = sample_ensemble(filt_u, n_draws=n_draws, seed=cfg["seed"])
    ens_b = sample_ensemble(filt_b, n_draws=n_draws, seed=cfg["seed"] + 1)
    value = log_plr(path_loglik(ens_u, data), path_loglik(ens_b, data))
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
    n_batches = cfg.get("batches", 50)
    kept = mix.iterations - mix.burn_in
    if not 2 <= n_batches <= kept:
        raise InvalidParameter(f"batches must lie in [2, {kept}], the kept draws; got {n_batches}")
    trace = mixture_gibbs(data, ue, bb, mix)
    _write_csv(outdir / "alpha_trace.csv", ["iteration", "alpha"], list(enumerate(trace.alpha.tolist())))
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
    filt_u, filt_b, warning = _filter_pair(cfg, data)
    level = cfg.get("level", 0.95)
    out = {}
    for tag, filt in (("ue", filt_u), ("bb", filt_b)):
        if filt is None:
            continue
        lengths, coverage = ppc_intervals(filt, data, level)
        rows = [
            [t] + length_t + [coverage_t]
            for t, (length_t, coverage_t) in enumerate(zip(lengths.tolist(), coverage.tolist()), start=1)
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
