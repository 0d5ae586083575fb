"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload smooth --seeds 1-10 [--seconds 30] [--trace 0]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the quartiles and the quartile spread
(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(values, n=4)``
gives them.  It also prints the failed share of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        share = res["failed"] / res["attempted"]
        line = ", ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed {res['failed']}/{res['attempted']} "
              f"(share {share:.6f}); {line}", flush=True)
        for key, m in res["metrics"].items():
            values.setdefault(key, []).append(m["value"])
            units[key] = m["unit"]
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{key:32s} median {med:.6g} {units[key]}  Q1 {q1:.6g}  Q3 {q3:.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
