"""In-memory spans and counts around the calls into gridforge's layers.

The program is not edited: each instrumented function is replaced, for the
duration of a pass, by a wrapper bound under the same name in the module
that calls it.  A wrapper opens a span named after the layer and the
function, runs the original, lets an observer turn the call into counts,
and closes the span.  Spans stay in a list until the run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("lmi", "synthesis", "sweep", "model", "certify", "simulate",
          "cli", "bench")


class Tracer:
    """Nested spans (name, start, end, parent index) plus named counts."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> Dict[str, float]:
        """Self time per layer: span time minus the time child spans cover.

        Children of one span never overlap (the program is single
        threaded), so the covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name.split(".", 1)[0]] += (end - start) - child
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# observers: turn one call's arguments and result into counts

def _observe_solve(tracer, args, result):
    tracer.counts["lmi.solves"] += 1
    tracer.counts[f"lmi.status.{result.status}"] += 1
    for it in result.iterations:
        tracer.counts[f"lmi.iters_phase{it.phase}"] += 1


def _observe_synthesize(tracer, args, result):
    """result is the exception when synthesize raised: a breakdown."""
    if isinstance(result, Exception):
        kind = "breakdowns"
    else:
        kind = "granted" if hasattr(result, "k") else "denied"
    tracer.counts[f"synthesis.{kind}"] += 1


def _observe_simulate(tracer, args, result):
    tracer.counts["simulate.samples"] += len(result.times)


def _observe_csv(tracer, args, result):
    tracer.counts["simulate.csv_bytes"] += os.path.getsize(args[1])


def _observe_assemble_global(tracer, args, result):
    tracer.counts["model.assemble_global_calls"] += 1


# (module, name bound there, span name, observer).  Names are patched in
# the module that calls them, since that is the binding the call resolves.
POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("gridforge.cli", "main", "cli.main", None),
    ("gridforge.cli", "load_scenario", "cli.load_scenario", None),
    ("gridforge.cli", "load_bundle", "cli.load_bundle", None),
    ("gridforge.cli", "run_sweep", "sweep.run_sweep", None),
    ("gridforge.cli", "synthesize_all", "synthesis.synthesize_all", None),
    ("gridforge.cli", "simulate", "simulate.simulate", _observe_simulate),
    ("gridforge.cli", "trajectory_to_csv", "simulate.trajectory_to_csv",
     _observe_csv),
    ("gridforge.cli", "write_event_log", "simulate.write_event_log", None),
    ("gridforge.cli", "check_global", "certify.check_global", None),
    ("gridforge.cli", "check_theorem1", "certify.check_theorem1", None),
    ("gridforge.cli", "check_lasalle_kernel", "certify.check_lasalle_kernel",
     None),
    ("gridforge.cli", "certificate_to_json", "certify.certificate_to_json",
     None),
    ("gridforge.cli", "assemble_global", "model.assemble_global",
     _observe_assemble_global),
    ("gridforge.certify", "assemble_global", "model.assemble_global",
     _observe_assemble_global),
    ("gridforge.sweep", "synthesize", "synthesis.synthesize",
     _observe_synthesize),
    ("gridforge.synthesis", "synthesize", "synthesis.synthesize",
     _observe_synthesize),
    ("gridforge.synthesis", "assemble_problem", "synthesis.assemble_problem",
     None),
    ("gridforge.synthesis", "solve", "lmi.solve", _observe_solve),
    ("gridforge.simulate", "attempt_plug_in", "simulate.attempt_plug_in",
     None),
    ("gridforge.simulate", "synthesize", "synthesis.synthesize",
     _observe_synthesize),
)

# Return values the correctness checks need from inside a command:
# the sweep table (gains and certificates of every grant) and the gains
# `simulate` runs with.  Captured in every pass, traced or not.
CAPTURES = (("gridforge.cli", "run_sweep"), ("gridforge.cli", "synthesize_all"))


def _traced(tracer, name, fn, observe):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is _observe_synthesize:
                    observe(tracer, args, exc)
                raise
            if observe is not None:
                observe(tracer, args, result)
            return result
    return wrapper


def _captured(store, key, fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        store.setdefault(key, []).append(result)
        return result
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Optional[Tracer], store: dict):
    """Patch the capture points, and with a tracer every span point."""
    saved = []

    def patch(module_name, attr, wrap):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, wrap(original))

    try:
        if tracer is not None:
            for module_name, attr, name, observe in POINTS:
                patch(module_name, attr,
                      lambda fn: _traced(tracer, name, fn, observe))
        for module_name, attr in CAPTURES:
            patch(module_name, attr, lambda fn: _captured(store, attr, fn))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
