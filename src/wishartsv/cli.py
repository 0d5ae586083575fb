"""Command-line workflows: simulate, filter, grid-search, smooth, compare-plr,
compare-mixture, ppc.

Every model has k = 1 (one normal return vector per observation), so
the config has no k.  A run's models travel as one dict keyed ``"ue"``
and ``"bb"``; flags and config keys pass one set of checks, and every
bad input exits 1 with a one-line JSON record.  Every run writes a
``meta.json`` echoing the configuration, seed, and package version, and
per-time tables as plain CSV so any plotting tool can consume them.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import stat
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
from .filtering import ReturnsSeries, filter_pair, forward_filter, grid_search, simulate
from .matops import sym, uchol
from .randsamp import RNG_ALGORITHM
from .smoother import correlation_summary, sample_ensemble
from .volproc import UEHyper, match_ue_to_bb


def _read_text(path, what: str) -> str:
    """The text of a UTF-8 file; ParseError if it cannot be read or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read {what}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: byte {exc.start}: {exc.reason}") from None


def load_returns_csv(path, q: int) -> ReturnsSeries:
    """Strictly parse a returns CSV: header, timestamp column (required, not read), q numeric columns.

    Two readers, one result: both give the same values and the same errors.
    Text with no ``"`` and no line longer than ``csv.field_size_limit()``,
    as ``csv.writer`` and ``_table_text`` write a table of numbers, is read
    in one pass, since on it a plain split and ``csv.reader`` agree field
    for field: every line must hold q commas, the data lines' fields are
    split at once and the timestamps dropped, and one ``map(float, ...)``
    fills one array, checked finite in one call and shaped (T, q) in C
    order.  Other text, and text with a fault this pass finds, goes to
    ``_read_rows``, which reads row by row with ``csv.reader`` and raises
    the first fault in file order.  ``float`` is the one number parser.
    """
    text = _read_text(path, "returns")
    if '"' not in text:
        rows = text.split("\n")  # _read_text has turned CRLF and a lone CR into "\n"
        if rows[-1] == "":
            rows.pop()
        if (
            len(rows) > 1
            and max(map(len, rows)) <= csv.field_size_limit()
            and set(map(str.count, rows, itertools.repeat(","))) == {q}
        ):
            fields = ",".join(rows[1:]).split(",")
            del fields[:: q + 1]
            try:
                vals = np.fromiter(map(float, fields), float, len(fields))
            except ValueError:
                pass
            else:
                if np.isfinite(vals).all():
                    return ReturnsSeries(vals.reshape(-1, q))
    return _read_rows(path, text, q)


def _read_rows(path, text: str, q: int) -> ReturnsSeries:
    """Read a returns CSV's ``text`` row by row with ``csv.reader``; raise its first fault in file order."""
    reader = csv.reader(io.StringIO(text))
    vals = []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        if len(header) != q + 1:
            raise DimensionMismatch(
                f"{path}: expected 1 timestamp + {q} return columns, found {len(header)} columns"
            )
        for row in reader:
            line_no = reader.line_num  # a quoted field may span lines, so count lines, not records
            if len(row) != q + 1:
                raise ParseError(f"{path}:{line_no}: expected {q + 1} fields, got {len(row)}")
            for col, cell in enumerate(row[1:], start=2):
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(f"{path}:{line_no}: column {col}: not a number: {cell!r}") from None
                if not math.isfinite(v):
                    raise ParseError(f"{path}:{line_no}: column {col}: non-finite value {cell!r}")
                vals.append(v)
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    if not vals:
        raise ParseError(f"{path}: no data rows")
    return ReturnsSeries(np.array(vals).reshape(-1, q))


def d0_from_presample(presample: ReturnsSeries, ridge: float = 0.0):
    """(1/T0) sum r_t r_t' with an optional (or auto-escalated) ridge.

    Returns (d0, warning); the warning is set when a singular raw average
    had to be regularized with 1e-8 times the mean diagonal.
    """
    if not 0 <= ridge < math.inf:
        raise InvalidParameter(f"ridge must be finite and >= 0, got {ridge}")
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


def _table_text(header, *columns, done=None) -> str:
    """A CSV table from whole columns (arrays or lists) of equal length, as one string.

    Each field is a Python int, float or comma-free string as ``str``
    writes it: a float in its shortest round-trip form, so the table reads
    back bit for bit.  An array column is formatted whole, by one ``repr``
    of its list, which formats every number in C; a list column goes
    through ``str`` field by field.  ``done`` maps an array column's dtype
    and bytes to its fields: a command passes one dict to every table of
    its run, so a column formatted for one table, as a matched pair's
    shared columns are, or for its own table, as a symmetric D_t's (i, j)
    and (j, i) columns often are, is formatted once.  Columns that differ
    in any bit, or in dtype, are formatted apart.  Rows end in CRLF, as
    ``csv.writer``'s do, and are joined once.
    """
    done = {} if done is None else done
    fields = [_cached_fields(c, done) if isinstance(c, np.ndarray) else map(str, c) for c in columns]
    return "\r\n".join([",".join(header), *map(",".join, zip(*fields, strict=True))]) + "\r\n"


def _cached_fields(col: np.ndarray, done: dict) -> list:
    """The fields of an array column from the run's cache ``done``, formatted on first use."""
    key = col.dtype.str, col.tobytes()
    if key not in done:
        done[key] = _fields(col)
    return done[key]


def _fields(col: np.ndarray) -> list:
    """The fields of an array column, each number as ``str`` writes it."""
    return repr(col.tolist())[1:-1].split(", ") if col.size else []


def _open_in_place(path, _flags) -> int:
    """An ``open`` opener for writing without ``O_TRUNC``; 0o666 leaves the mode to the umask, as ``open`` does."""
    return os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to the output file ``path`` as UTF-8 bytes; an OSError is InvalidParameter.

    No newline is translated.  The one file writer: a table is
    ``_table_text``'s text, a JSON record ``json.dumps(obj, indent=2) +
    "\n"``.  An existing file is overwritten in place: opened without
    ``O_TRUNC`` and written from the start, then, if it was longer, cut at
    the end of the new bytes.  On ext4 (unless mounted with
    ``noauto_da_alloc``) truncating a non-empty file to zero and rewriting
    it starts writeback of the file at its close, which costs more than the
    write itself; cutting only the old tail does not.  Only a regular file
    is cut: a FIFO or ``/dev/null`` has no length to cut.  No write is
    atomic, with ``O_TRUNC`` or without: a run that fails part way leaves
    some files new and some old, so check the exit status.
    """
    data = text.encode()
    try:
        with open(path, "wb", opener=_open_in_place) as f:
            old = os.fstat(f.fileno())
            f.write(data)
            if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
                f.truncate()
    except OSError as exc:
        raise InvalidParameter(f"{path}: cannot write output file: {exc.strerror}") from None


def _flat_header(prefix: str, q: int):
    return [f"{prefix}_{i + 1}{j + 1}" for i in range(q) for j in range(q)]


# ------------------------------------------------------------- commands


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        text = _read_text(args.config, "config")
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.config}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from None
        if not isinstance(cfg, dict):
            raise ParseError(f"{args.config}: config must be a JSON object")
    for key in ("seed", "model", "draws", "out"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _number(v) -> bool:
    # json reads NaN, Infinity and -Infinity as floats; none is a valid value
    return (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and math.isfinite(v))


def _numbers(v) -> bool:
    return isinstance(v, list) and all(map(_number, v))


# the JSON type each config field must have, as (description, check)
_FIELD_TYPES = {
    "q": ("a positive integer", lambda v: _number(v) and isinstance(v, int) and v >= 1),
    **dict.fromkeys(("T", "draws", "burn_in", "batches"), ("an integer", lambda v: _number(v) and isinstance(v, int))),
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


def _d0_from_cfg(cfg: dict, q: int):
    if "d0" in cfg:
        return np.asarray(cfg["d0"], dtype=float), None
    if "presample_csv" in cfg:
        pre = load_returns_csv(cfg["presample_csv"], q)
        return d0_from_presample(pre, cfg.get("ridge", 0.0))
    return np.eye(q), None


def _models(cfg: dict, q: int):
    """({"ue": the config's UEHyper, "bb": its matched BBHyper}, D_0 warning)."""
    d0, warning = _d0_from_cfg(cfg, q)
    ue = UEHyper(q=q, k=1, n=_required(cfg, "n"), lam=_required(cfg, "lambda"), d0=d0)
    return {"ue": ue, "bb": match_ue_to_bb(ue)}, warning


def _filters(cfg: dict, data: ReturnsSeries, model: str):
    """({tag: FilterOutput}, D_0 warning) for model "ue", "bb" or "matched" (both, sharing one factor path)."""
    hypers, warning = _models(cfg, data.q)
    if model != "matched":
        return {model: forward_filter(data, hypers[model])}, warning
    ue, bb = filter_pair(data, hypers["ue"], hypers["bb"])  # BB is match_ue_to_bb(UE): one factor path
    # on one factor path the densities differ only by the df paths, n (UE) and beta k_{t-1} (BB), which matching equates
    gap = np.abs(ue.log_forecast - bb.log_forecast).max()
    if gap > 1e-8:
        raise WishartSVError(f"matched UE/BB forecast densities disagree by {gap}")
    return {"ue": ue, "bb": bb}, warning


def _load_data(cfg: dict) -> ReturnsSeries:
    return load_returns_csv(_required(cfg, "data_csv"), _required(cfg, "q"))


def cmd_simulate(cfg: dict, outdir: Path) -> dict:
    q = _required(cfg, "q")
    hypers, warning = _models(cfg, q)
    model = cfg.get("model", "ue")
    if model not in ("ue", "bb"):
        raise InvalidParameter(f"simulate draws from one model, ue or bb; got {model!r}")
    series, phis = simulate(hypers[model], _required(cfg, "T"), cfg["seed"])
    t = np.arange(series.T + 1)
    _write_text(outdir / "returns.csv", _table_text(["t"] + [f"r{i + 1}" for i in range(q)], t[1:], *series.returns.T))
    _write_text(outdir / "true_path.csv", _table_text(["t"] + _flat_header("phi", q), t, *phis.reshape(-1, q * q).T))
    return {"T": series.T, "q": q, "model": model, "warning": warning}


def cmd_filter(cfg: dict, outdir: Path) -> dict:
    data = _load_data(cfg)
    filts, warning = _filters(cfg, data, cfg.get("model", "matched"))
    q = data.q
    header = ["t", "k_t"] + _flat_header("d", q) + ["log_forecast"]
    done = {}  # one column cache for the run's tables
    for tag, filt in filts.items():
        with np.errstate(over="ignore"):  # D_t may overflow where G_t does not: the table reads inf there
            d = filt.g @ np.swapaxes(filt.g, 1, 2)  # dense D_t, for the table only
        # t = 0 has no forecast: its empty log_forecast field joins the column after the cache formats it
        _write_text(outdir / f"filtered_{tag}.csv",
                    _table_text(header, np.arange(data.T + 1), filt.k_seq, *d.reshape(-1, q * q).T,
                                ["", *_cached_fields(filt.log_forecast, done)], done=done))
    return {"warning": warning, "models": {tag: {"loglik": filt.loglik} for tag, filt in filts.items()}}


# default (n, lambda) grid: n in 3..20, lambda in 0.600..0.990 step 0.001
DEFAULT_N_GRID = list(range(3, 21))
DEFAULT_LAMBDA_GRID = [round(0.600 + 0.001 * i, 3) for i in range(391)]


def cmd_grid_search(cfg: dict, outdir: Path) -> dict:
    data = _load_data(cfg)
    d0, warning = _d0_from_cfg(cfg, data.q)
    n_grid = cfg.get("n_grid", DEFAULT_N_GRID)
    lambda_grid = cfg.get("lambda_grid", DEFAULT_LAMBDA_GRID)
    n_star, lambda_star, surface = grid_search(data, d0, n_grid, lambda_grid)
    # the grid values as the config gave them, so integer n stay integers
    n_col = [n for n in n_grid for _ in lambda_grid]
    _write_text(outdir / "surface.csv",
                _table_text(["n", "lambda", "loglik"], n_col, lambda_grid * len(n_grid), surface.ravel()))
    return {
        "n_star": n_star,
        "lambda_star": lambda_star,
        "loglik_star": float(surface.max()),
        "warning": warning,
    }


def cmd_smooth(cfg: dict, outdir: Path) -> dict:
    data = _load_data(cfg)
    filts, warning = _filters(cfg, data, cfg.get("model", "matched"))
    n_draws = cfg.get("draws", 100)
    quantiles = cfg.get("quantiles", [0.025, 0.5, 0.975])
    header = ["t", "i", "j"] + [f"q{qt}" for qt in quantiles]
    iu, ju = np.triu_indices(data.q, k=1)  # no pair at q = 1, and so no table
    steps = data.T + 1
    pairs = np.tile(np.arange(steps), iu.size), np.repeat(iu + 1, steps), np.repeat(ju + 1, steps)
    done = {}  # one column cache for the run's tables, so every model's table shares the (t, i, j) fields
    out = {}
    for tag, filt in filts.items():
        ens = sample_ensemble(filt, n_draws=n_draws, seed=cfg["seed"])
        curves = correlation_summary(ens, quantiles)  # [level][pair][t]
        if iu.size:
            _write_text(outdir / f"correlations_{tag}.csv",
                        _table_text(header, *pairs, *curves.reshape(len(quantiles), -1), done=done))
        out[tag] = {"draws": n_draws}
    return {"warning": warning, "models": out}


def cmd_compare_plr(cfg: dict, outdir: Path) -> dict:
    data = _load_data(cfg)
    filts, warning = _filters(cfg, data, "matched")
    n_draws = cfg.get("draws", 100)
    ens_u = sample_ensemble(filts["ue"], n_draws=n_draws, seed=cfg["seed"])
    # substreams (seed + 1, i) are the UE ones of a run at seed + 1: independent runs need seeds two apart
    ens_b = sample_ensemble(filts["bb"], n_draws=n_draws, seed=cfg["seed"] + 1)
    value = log_plr(path_loglik(ens_u, data), path_loglik(ens_b, data))
    return {"log_plr": value, "draws": n_draws, "warning": warning}


def cmd_compare_mixture(cfg: dict, outdir: Path) -> dict:
    data = _load_data(cfg)
    hypers, warning = _models(cfg, data.q)
    # MixtureConfig's defaults stand for the keys the config does not give
    fields = {"a0": "a0", "b0": "b0", "draws": "iterations", "burn_in": "burn_in"}
    mix = MixtureConfig(seed=cfg["seed"], **{field: cfg[key] for key, field in fields.items() if key in cfg})
    n_batches = cfg.get("batches", 50)
    kept = mix.iterations - mix.burn_in
    if "batches" not in cfg and n_batches > kept:
        raise InvalidParameter(
            f"batches defaults to 50, more than the {kept} kept draws; set 'batches' or raise 'draws'")
    if not 2 <= n_batches <= kept:
        raise InvalidParameter(f"batches must lie in [2, {kept}], the kept draws; got {n_batches}")
    trace = mixture_gibbs(data, hypers["ue"], hypers["bb"], mix)
    _write_text(outdir / "alpha_trace.csv", _table_text(["iteration", "alpha"], np.arange(kept), trace.alpha))
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
    filts, warning = _filters(cfg, data, cfg.get("model", "matched"))
    level = cfg.get("level", 0.95)
    header = ["t"] + [f"length_{i + 1}" for i in range(data.q)] + ["cumulative_coverage"]
    done, out = {}, {}  # one column cache for the run's tables
    for tag, filt in filts.items():
        lengths, coverage = ppc_intervals(filt, data, level)
        _write_text(outdir / f"ppc_{tag}.csv",
                    _table_text(header, np.arange(1, data.T + 1), *lengths.T, coverage, done=done))
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
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, exit_on_error=False)
        p.add_argument("--config", help="JSON config file; its fields are the README's config table")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument("--model", help="ue, bb or matched (checked like the config key)")
        p.add_argument("--draws", type=int, help="ensemble size / chain length")
        p.add_argument("--out", help="output directory")
    return parser


def run_command(command: str, cfg: dict) -> dict:
    """Check the config and dispatch a command; returns the summary dict written to results.json."""
    cfg = dict(cfg)
    cfg.setdefault("seed", 0)
    cfg.setdefault("out", "out")
    _check_types(cfg)
    outdir = Path(cfg["out"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidParameter(f"{outdir}: cannot create output directory: {exc.strerror}") from None
    t0 = time.perf_counter()
    summary = COMMANDS[command](cfg, outdir)
    summary = {"command": command, "seed": cfg["seed"], **summary}
    _write_text(outdir / "results.json", json.dumps(summary, indent=2) + "\n")
    meta = {"config": cfg, "version": __version__, "rng": RNG_ALGORITHM,
            "wall_time_s": round(time.perf_counter() - t0, 3), "command": command}
    _write_text(outdir / "meta.json", json.dumps(meta, indent=2) + "\n")
    return summary


def _parse_args(argv) -> argparse.Namespace:
    """Parse the command line; a bad flag value, an unknown flag or an unknown command is a ParseError."""
    try:
        args, extra = build_parser().parse_known_args(argv)
    except argparse.ArgumentError as exc:
        raise ParseError(str(exc)) from None
    if extra:
        raise ParseError(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        cfg = _load_config(args)
        run_command(args.command, cfg)
    except WishartSVError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
