"""Spans around the calls into each `fif` layer, recorded from outside the
package for the traced run.

Each public entry point is replaced, for the duration of the traced run, at
the place its caller looks it up: the solver and analysis functions in
``fif.cli``, the operators in ``fif.fractal``, the kernels in
``fif.operators`` and the map methods on their classes.  A span records its
name, start, end, parent span, operation id and the work it did (cells,
sweeps or points).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    work: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, work=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if work is not None:
            span.work = work(args, out)
        return out

    def wrap(self, name, fn, work=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        return traced


def _solve_work(args, res):
    # counts come from what the solve did, never from predicted_sweeps
    levels = res.diagnostics.get("derivative_levels", {})
    sweeps = res.iterations + sum(v["iterations"] for v in levels.values())
    cells = int(res.diagnostics["cells"])
    return {"cells": cells, "sweeps": sweeps, "cell_sweeps": cells * sweeps}


def _points(index):
    return lambda args, out: {"points": int(np.size(args[index]))}


def _targets():
    from fif import cli, fractal, maps, operators

    return [
        (cli, "solve_fif", "fractal.solve", _solve_work),
        (cli, "solve_fif_discrete", "fractal.solve", _solve_work),
        (cli, "solve_fif_smooth", "fractal.solve", _solve_work),
        (cli, "chaos_game_render", "fractal.chaos",
         lambda args, out: {"points": int(np.size(out[0]))}),
        (cli, "box_counting_dimension", "analysis.box_count", _points(0)),
        (cli, "modulus_of_continuity", "analysis.modulus", None),
        (fractal, "nn_eval", "operators.nn_eval", _points(2)),
        (fractal, "nn_eval_four_layer", "operators.four_layer", _points(2)),
        (fractal, "nn_eval_derivative", "operators.derivative", _points(3)),
        (operators, "xi_eval", "kernels.xi_eval", _points(1)),
        (operators, "xi_derivative", "kernels.xi_derivative", _points(2)),
        (maps.Partition, "locate", "maps.locate", None),
        (maps.Partition, "inverse", "maps.inverse", None),
        (maps.ScalingVector, "values_at", "maps.values_at", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the layer entry points through ``tracer`` inside the block."""
    saved = []
    try:
        for owner, attr, name, work in _targets():
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, work))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def work_by_op(spans) -> dict:
    """Summed work counters per operation id, keyed ``<span name>.<counter>``."""
    out = defaultdict(lambda: defaultdict(int))
    for s in spans:
        for key, value in s.work.items():
            out[s.op][f"{s.name}.{key}"] += value
    return {op: dict(counts) for op, counts in out.items()}


def layer_metrics(spans, ops: int) -> dict:
    """Per-operation layer times and counts from one traced run of ``ops``."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for s, t_self in zip(spans, self_times(spans)):
        layer = s.name.split(".")[0]
        group = s.name if layer in ("fractal", "analysis") else layer
        for key in {group, s.name}:
            total[key] += s.end - s.start
            own[key] += t_self
            calls[key] += 1
        for key, value in s.work.items():
            work[f"{group}.{key}"] += value
    solve_cs = work["fractal.solve.cell_sweeps"]
    op_points = work["operators.points"]
    per_op = {
        "cli.self_s": own["cli"],
        "fractal.solve.s": total["fractal.solve"],
        "fractal.solve.self_s": own["fractal.solve"],
        "fractal.solve.calls": calls["fractal.solve"],
        "fractal.solve.cells": work["fractal.solve.cells"],
        "fractal.solve.sweeps": work["fractal.solve.sweeps"],
        "fractal.chaos.self_s": own["fractal.chaos"],
        "fractal.chaos.points": work["fractal.chaos.points"],
        "operators.s": total["operators"],
        "operators.self_s": own["operators"],
        "operators.points": op_points,
        "operators.nn_eval.s": total["operators.nn_eval"],
        "operators.four_layer.s": total["operators.four_layer"],
        "operators.derivative.s": total["operators.derivative"],
        "kernels.s": total["kernels"],
        "kernels.points": work["kernels.points"],
        "maps.s": total["maps"],
        "analysis.box_count.s": total["analysis.box_count"],
        "analysis.box_count.points": work["analysis.box_count.points"],
        "analysis.modulus.s": total["analysis.modulus"],
    }
    out = {k: v / ops for k, v in per_op.items()}
    out["fractal.solve.ns_per_cell_sweep"] = (
        own["fractal.solve"] * 1e9 / solve_cs if solve_cs else 0.0
    )
    out["operators.ns_per_point"] = (
        total["operators"] * 1e9 / op_points if op_points else 0.0
    )
    # every span's self time belongs to exactly one of these layer figures
    out["self_sum_s"] = (
        own["cli"] + own["fractal.solve"] + own["fractal.chaos"]
        + own["operators"] + own["kernels"] + own["maps"]
        + own["analysis.box_count"] + own["analysis.modulus"]
    ) / ops
    return out
