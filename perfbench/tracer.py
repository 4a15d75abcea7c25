"""Outside-in tracing of the latlang layers.

Every public function defined in a layer module is wrapped, and the wrapper
is rebound in every ``latlang`` namespace that holds the original, so calls
between modules and calls inside one module both go through it.  A span is
(id, function, start, end, parent span, op, exception type); a span's self
time is its duration minus the time of its child spans.  Nothing under
``src/`` changes: uninstalling restores every binding.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "serialize", "lattice", "monoid", "coloring", "automaton",
          "syntactic", "variety", "markov")

# Functions whose arguments and return values feed the layer counters.
OBSERVED = {
    "syntactic.syntactic", "syntactic.shuffle_ideal_falsify",
    "monoid.build_ordered_monoid", "monoid.divides", "automaton.minimize",
    "markov.decompose", "markov.absorption_probabilities", "cli.run",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "module.function" by function id
        # per function id: [calls, total_s of outermost calls, self_s, errors raised]
        self.stats: list[list] = []
        self.spans: list[tuple] = []
        self.observed: list[tuple] = []  # (name, args, result) of OBSERVED calls
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [span id, child time]
        self._depth: list[int] = []
        self._last_error: BaseException | None = None
        self._bindings: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"latlang.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for module_name, module in list(sys.modules.items()):
            if module_name != "latlang" and not module_name.startswith("latlang."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, original in self._bindings:
            setattr(module, name, original)
        self._bindings.clear()

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        self.stats.append([0, 0.0, 0.0, 0])
        self._depth.append(0)
        observe = name in OBSERVED
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            self._depth[fid] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(fid, frame, parent, start, perf_counter(), exc)
                raise
            self._close(fid, frame, parent, start, perf_counter(), None)
            if observe:
                self.observed.append((name, args, result))
            return result

        return traced

    def _close(self, fid, frame, parent, start, end, exc) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        stat = self.stats[fid]
        stat[0] += 1
        stat[2] += duration - frame[1]
        self._depth[fid] -= 1
        if not self._depth[fid]:
            stat[1] += duration
        error = ""
        if exc is not None:
            error = type(exc).__name__
            # count an exception once, in the function that raised it
            if isinstance(exc, Exception) and exc is not self._last_error:
                stat[3] += 1
                self._last_error = exc
        self.spans.append((frame[0], fid, start, end, parent, self.op, error))

    def function(self, name: str) -> list:
        """[calls, total_s, self_s, errors] of one function (zeros if never wrapped)."""
        return self.stats[self.names.index(name)] if name in self.names else [0, 0.0, 0.0, 0]

    def layer_totals(self) -> dict[str, list]:
        """Per layer: [calls, self_s, errors]."""
        totals = {layer: [0, 0.0, 0] for layer in LAYERS}
        for name, (calls, _, self_s, errors) in zip(self.names, self.stats):
            total = totals[name.split(".")[0]]
            total[0] += calls
            total[1] += self_s
            total[2] += errors
        return totals

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        origin = min((s[2] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span_id, fid, start, end, parent, op, error in sorted(self.spans):
                module, function = self.names[fid].split(".")
                out.write(json.dumps({
                    "id": span_id, "module": module, "function": function,
                    "start": round(start - origin, 7), "end": round(end - origin, 7),
                    "parent": parent, "op": op, "error": error,
                }, separators=(",", ":")) + "\n")
