"""Span tracer for `pwr`, installed from outside the program.

Timing wrappers replace each layer's public functions in every `pwr` module
namespace that holds them: the defining module (so internal calls such as
``verify_power_intent -> analyze_crossings`` nest) and each importer
(``pwr.cli``, ``pwr.voltage``, ``pwr.power``, the package itself).  Spans
carry a parent link and stay in memory until the run ends.  A
``gc.callbacks`` hook charges every collector pause to the innermost open
span, so ``gc_s`` of a span is the pause inside its self time.

Run as a script it traces one CLI command:

    python3 bench/tracer.py SPANS.json pwr-argv...

with ``src`` of the checkout on ``PYTHONPATH``.  The file gets the spans,
per-layer counts and the collector totals; the exit code is the command's.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from functools import wraps

# The layer boundaries: (module, function) pairs, named "<module>.<function>".
# Each count function maps (args, result) to {count name: increment}.
LAYER_FUNCTIONS = {
    "netlist": ("parse_design", "serialize_design", "parse_activity", "parse_characterization"),
    "crossings": ("analyze_crossings", "apply_power_fixes", "insert_sleep_pins", "verify_power_intent"),
    "power": ("power_report", "dynamic_power", "static_power"),
    "voltage": ("assign_voltages", "power_savings_summary"),
    "pimsim": ("parse_script", "pim_run_script", "trace_to_vcd"),
    "report": ("emit_report",),
}

# Every span name a traced pass can report, besides "python.startup".
SPAN_NAMES = [f"{m}.{f}" for m, fns in LAYER_FUNCTIONS.items() for f in fns] + [
    "pimsim.trace_to_text",
    "cli.run_cli",
]

COUNTS = {
    "netlist.parse_design": lambda a, r: {"netlist.cells": len(r.cells), "netlist.nets": len(r.nets)},
    "crossings.analyze_crossings": lambda a, r: {"crossings.issues": len(r)},
    "crossings.apply_power_fixes": lambda a, r: {"crossings.cells_added": len(r.cells) - len(a[0].cells)},
    "crossings.verify_power_intent": lambda a, r: {"crossings.violations": len(r)},
    "power.power_report": lambda a, r: {"power.scenarios": 1},
    "voltage.assign_voltages": lambda a, r: {"voltage.plans": 1},
    "pimsim.parse_script": lambda a, r: {"pimsim.commands": len(r)},
    "pimsim.pim_run_script": lambda a, r: {"pimsim.events": len(r.events)},
    "report.emit_report": lambda a, r: {"report.rows": len(a[0].rows)},
}

COUNT_NAMES = (
    "netlist.cells", "netlist.nets", "crossings.issues", "crossings.cells_added", "crossings.violations",
    "power.scenarios", "voltage.plans", "pimsim.commands", "pimsim.events", "report.rows",
)

SPAN_NAME, SPAN_PARENT, SPAN_START, SPAN_END, SPAN_GC = range(5)


class Tracer:
    """Records spans ``[name, parent index, start, end, gc pause]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._stack: list[int] = []
        self._gc_start = 0.0

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @wraps(fn)
        def timed(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[SPAN_END] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                for key, n in count(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        return timed

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        self.gc_pause_s += pause
        self.gc_gen2 += info["generation"] == 2
        if self._stack:
            self.spans[self._stack[-1]][SPAN_GC] += pause

    def install(self) -> None:
        """Wrap every layer function wherever a `pwr` module holds it."""
        import pwr
        import pwr.cli
        from pwr.pimsim import Trace

        modules = [m for name, m in sys.modules.items() if name == "pwr" or name.startswith("pwr.")]
        for layer, names in LAYER_FUNCTIONS.items():
            source = sys.modules[f"pwr.{layer}"]
            for fn_name in names:
                original = getattr(source, fn_name)
                timed = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, timed)
        Trace.to_text = self.wrap("pimsim.trace_to_text", Trace.to_text)
        pwr.cli.run_cli = self.wrap("cli.run_cli", pwr.cli.run_cli)
        gc.callbacks.append(self._on_gc)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "gc_pause_s": self.gc_pause_s,
            "gc_gen2": self.gc_gen2,
        }


def self_times(spans: list[list]) -> dict[str, list[float]]:
    """Per span name: [self seconds, self gc seconds, calls]."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[SPAN_PARENT] >= 0:
            child_s[span[SPAN_PARENT]] += span[SPAN_END] - span[SPAN_START]
    out: dict[str, list[float]] = {}
    for span, children in zip(spans, child_s):
        entry = out.setdefault(span[SPAN_NAME], [0.0, 0.0, 0])
        entry[0] += span[SPAN_END] - span[SPAN_START] - children
        entry[1] += span[SPAN_GC]
        entry[2] += 1
    return out


def _main(argv: list[str]) -> int:
    # BENCH_SPAWN_T is the parent's perf_counter just before it spawned this
    # process; perf_counter is the system-wide monotonic clock on Linux.
    spawn_t = float(os.environ["BENCH_SPAWN_T"])
    out_path, pwr_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import pwr.cli

    started = time.perf_counter()
    tracer.spans.append(["python.startup", -1, spawn_t, started, 0.0])
    rc = pwr.cli.run_cli(pwr_argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
