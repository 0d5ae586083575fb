"""Benchmark of the wishartsv command-line workflows, end to end and per layer.

    python3 bench/run.py --workload {grid,smooth,mixture} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke [--trace 1]

Commands run in-process through ``wishartsv.cli.run_command`` from the
package source next to this directory.  The last line of standard output
is one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  ``--smoke`` runs one round of every
workload with all checks.  See README.md in this directory.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# all kernels are q <= 5 matrices: BLAS threads have nothing to share and
# only add scheduling noise, so the program is measured single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from scipy.linalg import solve_triangular  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "_work"
SETUP_REPEATS = 3
CAL_STEPS = 1500
CAL_FACTOR = np.triu(np.ones((3, 3))) + 2.0 * np.eye(3)
CAL_NOMINAL_S = 0.04  # calibration time the rates are scaled to


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import wishartsv.cli as cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import wishartsv from {SRC}: {exc}")
    if SRC not in Path(cli.__file__).resolve().parents:
        sys.exit(f"bench: wishartsv was imported from {cli.__file__}, not from {SRC}")
    return cli


def calibration_s() -> float:
    """Seconds for a fixed mix of interpreter and 3x3 triangular-solve work.

    The kernel shares no code with the program.  Its time tracks the speed
    the shared machine gives this process at that moment.
    """
    r, x, acc = CAL_FACTOR, np.ones(3), 0.0
    t0 = time.perf_counter()
    for _ in range(CAL_STEPS):
        w = solve_triangular(r, x, trans="T", lower=False)
        acc += math.log1p(float(w @ w))
        x = 0.999 * x + 1e-3
    return time.perf_counter() - t0


def run_rounds(cli, wl, seconds: float, max_rounds: int | None, log, tracer=None):
    """Closed loop over whole rounds until ``seconds`` of wall time have passed.

    Returns per-round (command seconds, completed work, command seconds at
    the calibration's nominal speed) and totals.  Only ``run_command`` is
    timed.  The calibration kernel runs before the first operation and
    after each one; an operation's time is scaled by CAL_NOMINAL_S over
    the mean calibration time around it.  The checks run after that.  A
    tracer keeps the spans of the first round only.
    """
    rounds, attempted, failed, correct = [], 0, 0, True
    errors = {}
    start = time.perf_counter()
    cal_before = calibration_s()
    while True:
        r_time, r_work, r_scaled = 0.0, 0, 0.0
        for op in wl.ops:
            cfg = dict(op.cfg)
            attempted += 1
            t0 = time.perf_counter()
            try:
                cli.run_command(op.command, cfg)
                err = None
            except Exception as exc:  # a failed operation is counted, and the run goes on
                err = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            cal_after = calibration_s()
            r_time += dt
            r_scaled += dt * CAL_NOMINAL_S / (0.5 * (cal_before + cal_after))
            cal_before = cal_after
            if err is not None:
                failed += 1
                errors[op.name] = err
                continue
            try:
                op.check(Path(cfg["out"]))
            except checks.CheckFailed as exc:
                correct = False
                errors[op.name] = f"check failed: {exc}"
                continue
            r_work += op.work
        rounds.append((r_time, r_work, r_scaled))
        if tracer is not None:
            tracer.keep_spans = False
        if max_rounds is not None and len(rounds) >= max_rounds:
            break
        if time.perf_counter() - start >= seconds:
            break
    for name, msg in sorted(errors.items()):
        log(f"{wl.name}: {name}: {msg}")
    return rounds, attempted, failed, correct


def layer_metrics(tr, n_rounds: int, work_per_s: float) -> dict:
    """Per-layer figures per round, from the tracer's counts and times."""
    calls, busy, self_time, units = tr.calls, tr.busy, tr.self_time, tr.units

    def per_round(x):
        return x / n_rounds

    def us_per(seconds, n):
        return 1e6 * seconds / n if n else 0.0

    filters = ("filtering.ue_forward_filter", "filtering.bb_forward_filter")
    samplers = ("smoother.ue_backward_sample", "smoother.bb_backward_sample")
    filter_s = sum(busy[k] for k in filters)
    cli_self = sum(v for k, v in self_time.items() if k.startswith("cli.") and k != "cli.load_returns_csv")
    m = {
        "filtering.grid_s": ("s", per_round(busy["filtering.grid_search"])),
        "filtering.mll_calls": ("count", per_round(calls["filtering.marginal_loglik"])),
        "matops.chol_update_calls": ("count", per_round(calls["matops.chol_update"])),
        "matops.chol_update_s": ("s", per_round(busy["matops.chol_update"])),
        "filtering.filter_calls": ("count", per_round(sum(calls[k] for k in filters))),
        "filtering.filter_s": ("s", per_round(filter_s)),
        "filtering.filter_us_per_step": ("us", us_per(filter_s, sum(units[k] for k in filters))),
        "matops.uchol_inv_gram_calls": ("count", per_round(calls["matops.uchol_inv_gram"])),
        "matops.uchol_inv_gram_s": ("s", per_round(busy["matops.uchol_inv_gram"])),
        "smoother.ensemble_s": ("s", per_round(busy["smoother.sample_ensemble"])),
        "smoother.us_per_matrix": ("us", us_per(busy["smoother.sample_ensemble"],
                                                units["smoother.sample_ensemble"])),
        "smoother.backward_calls": ("count", per_round(sum(calls[k] for k in samplers))),
        "smoother.backward_s": ("s", per_round(sum(busy[k] for k in samplers))),
        "smoother.corr_calls": ("count", per_round(calls["smoother.correlation_summary"])),
        "smoother.corr_s": ("s", per_round(busy["smoother.correlation_summary"])),
        "compare.plr_s": ("s", per_round(busy["compare.log_plr"])),
        "compare.path_loglik_calls": ("count", per_round(calls["compare.path_loglik"])),
        "compare.ppc_s": ("s", per_round(busy["compare.ppc_intervals"])),
        "compare.gibbs_self_s": ("s", per_round(self_time["compare.mixture_gibbs"])),
        "matops.inv_upper_calls": ("count", per_round(calls["matops.inv_upper"])),
        "matops.uchol_calls": ("count", per_round(calls["matops.uchol"])),
        "randsamp.wishart_calls": ("count", per_round(calls["randsamp.sample_wishart_bartlett"])),
        "randsamp.wishart_s": ("s", per_round(busy["randsamp.sample_wishart_bartlett"])),
        "randsamp.chi2_calls": ("count", per_round(calls["randsamp.sample_chi2"])),
        "randsamp.mvnormal_calls": ("count", per_round(calls["randsamp.sample_mvnormal_prec"])),
        "cli.load_s": ("s", per_round(busy["cli.load_returns_csv"])),
        "cli.self_s": ("s", per_round(cli_self)),
        "trace.work_per_s": ("1/s", work_per_s),
    }
    return {k: {"value": v, "unit": u} for k, (u, v) in m.items()}


def bench_once(cli, name: str, seed: int, seconds: float, trace: bool, max_rounds: int | None,
               import_s: float, log) -> dict:
    """Set up ``name`` SETUP_REPEATS times, then run and check its rounds."""
    workdir = WORK / name
    prep = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.build(name, seed, workdir)
        prep.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(prep)

    tr = None
    if trace:
        tr = Tracer()
        tr.install()
    try:
        rounds, attempted, failed, correct = run_rounds(cli, wl, seconds, max_rounds, log, tr)
    finally:
        if tr is not None:
            tr.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if wl.final_check is not None:
        try:
            wl.final_check()
        except checks.CheckFailed as exc:
            correct = False
            log(f"{name}: final check failed: {exc}")

    rates = [w / scaled for _, w, scaled in rounds]
    work_per_s = statistics.median(rates)
    raw_per_s = statistics.median(w / t for t, w, _ in rounds)
    log(f"{name}: seed {seed}, {len(rounds)} rounds, {attempted} operations, {failed} failed, "
        f"correct {correct}; {wl.unit} per second: {work_per_s:.6g} at nominal speed, "
        f"{raw_per_s:.6g} unscaled")
    if trace:
        tr.write_spans(workdir / "spans.csv")
        metrics = layer_metrics(tr, len(rounds), work_per_s)
    else:
        metrics = {
            "work_per_s": {"value": work_per_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["grid", "smooth", "mixture"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="one round of every workload, with all checks")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    cli = import_package()
    import_s = time.perf_counter() - T_START

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if args.smoke:
        ok = True
        for name in ("grid", "smooth", "mixture"):
            res = bench_once(cli, name, args.seed, 0.0, bool(args.trace), 1, import_s, log)
            for key, m in res["metrics"].items():
                log(f"  {key} = {m['value']:.6g} {m['unit']}")
            ok = ok and res["correct"]
        print(json.dumps({"smoke": "pass" if ok else "FAIL"}))
        return 0 if ok else 1

    res = bench_once(cli, args.workload, args.seed, args.seconds, bool(args.trace), None, import_s, log)
    for key, m in res["metrics"].items():
        log(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
