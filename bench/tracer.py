"""Per-layer timing of the package from outside it.

``Tracer.install`` replaces every public function of every ``wishartsv``
module in each module namespace that binds it by name, so a call made
through ``filtering.chol_update`` is timed as well as one made through
``matops.chol_update``.  Calls that go through other references, such as
the command table in ``cli.COMMANDS``, run inside their caller's span.

Each call is a span (name, start, end, parent).  Spans are kept in memory
while ``keep_spans`` is set and written out by ``write_spans``; call
counts, busy time and self time (duration minus the time of child spans)
are accumulated for every call.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _filter_steps(args, kwargs):
    data = args[0] if args else kwargs["data"]
    return data.T


def _ensemble_matrices(args, kwargs):
    filt = args[0] if args else kwargs["filt"]
    n_draws = args[2] if len(args) > 2 else kwargs["n_draws"]
    return n_draws * (filt.log_forecast.shape[0] + 1)


# units of work counted per call, for per-unit timings
UNITS = {
    "filtering.ue_forward_filter": _filter_steps,
    "filtering.bb_forward_filter": _filter_steps,
    "smoother.sample_ensemble": _ensemble_matrices,
}


class Tracer:
    def __init__(self, package: str = "wishartsv"):
        self.package = package
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.units: Counter = Counter()
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.keep_spans = True
        self._stack: list = []  # [span index, time covered by children]
        self._patched: list = []

    def install(self) -> None:
        wrapped = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith(self.package + "."):
                    continue
                if fn not in wrapped:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    wrapped[fn] = self._wrap(name, fn)
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, wrapped[fn])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        calls, busy, self_time, units = self.calls, self.busy, self.self_time, self.units
        unit_fn = UNITS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = -1
            if self.keep_spans:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][0] if stack else -1])
            frame = [idx, 0.0]
            stack.append(frame)
            if unit_fn is not None:
                units[name] += unit_fn(args, kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dur = end - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                busy[name] += dur
                self_time[name] += dur - frame[1]
                if idx >= 0:
                    spans[idx][1] = start
                    spans[idx][2] = end

        return traced

    def write_spans(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "parent", "start_s", "end_s"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                w.writerow([i, name, parent, f"{start - t0:.9f}", f"{end - t0:.9f}"])
