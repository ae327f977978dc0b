"""The benchmark's tracer wraps `fif` functions by name; every layer it reports
must still be reached, or its figure silently reads 0."""

import importlib.util
import sys
from pathlib import Path

from fif import cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_reached(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert cli.main(["smooth", "--function", "cos", "--r", "2", "--kernel", "bump",
                         "--n", "16", "--alpha", "0.05", "--grid-exp", "6",
                         "--out", str(tmp_path / "smooth")]) == 0
        assert cli.main(["build", "--function", "sin", "--n", "16", "--grid-exp", "6",
                         "--out", str(tmp_path / "build")]) == 0
    metrics = spans.layer_metrics(tracer.spans, ops=1)
    layers = ["fractal.solve.s", "operators.nn_eval.s", "operators.four_layer.s",
              "operators.derivative.s", "maps.s"]
    assert [name for name in layers if not metrics[name] > 0] == []
