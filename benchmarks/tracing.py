"""Per-layer tracing from outside the package.

The tracer rebinds every public module-level function of the ptqubit layers
in every module that holds a reference to it (``ptqubit.optimize.correlators``,
``ptqubit.cli.correlators``, ``ptqubit.correlators``, ...), so calls between
layers go through a timing wrapper without any change under ``src/``.

Each wrapper keeps aggregated counters per function: calls, self time
(duration minus the time of wrapped calls made inside it) and inclusive
time.  Class methods and private helpers are not wrapped; their time counts
toward the public function that calls them.  Spans (request, id, parent,
name, start, end) are kept in memory only for the command itself and the
layer calls it makes directly, so a 2000-point optimizer scan does not
record 26,000 spans; the hot inner calls are covered by the counters.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time

LAYERS = ("cli", "optimize", "correlations", "pt_dynamics", "qstate", "dilation", "montecarlo")

#: Stack depth (1 = the command entry point) down to which spans are kept.
SPAN_DEPTH = 2


class Tracer:
    """Counters and spans for the wrapped ptqubit functions of one process."""

    def __init__(self):
        self.stats = {}  # "layer.function" -> [calls, self seconds, total seconds]
        self.spans = []  # (request, id, parent id, name, start, end)
        self.request = None
        self._stack = [[0.0, None]]  # per open call: [child seconds, span id]
        self._ids = itertools.count()

    def install(self) -> None:
        """Wrap each layer's public functions and rebind every reference to them."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ptqubit.{layer}")
            for name, fn in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        modules = [importlib.import_module("ptqubit")]
        modules += [importlib.import_module(f"ptqubit.{layer}") for layer in LAYERS]
        for module in modules:
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])

    def _wrap(self, name, fn):
        record = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1]
            frame = [0.0, next(ids) if len(stack) <= SPAN_DEPTH else None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                record[0] += 1
                record[1] += elapsed - frame[0]
                record[2] += elapsed
                stack[-1][0] += elapsed
                if frame[1] is not None:
                    spans.append((self.request, frame[1], parent, name, start, end))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines, in order of completion."""
        keys = ("request", "id", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
