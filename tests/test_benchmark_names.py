"""Every per-layer metric the benchmark declares names something its tracer
wraps: a public function defined in that layer's module, or the
constructor of a counted class.  A name that resolves to nothing has no
row in the tracer's summary, and the traced benchmark run fails on it."""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
LAYERS = ("qop", "measurement", "feedback", "thermo", "engine")
COUNTED_CLASSES = {("qop", "DensityMatrix"), ("engine", "EngineConfig")}
# the span every scenario and scan-family constructor is recorded under
BUILD = "build"


def _layer_metrics() -> list[str]:
    """The ``<layer>.<name>.<stat>`` names, build spans aside."""
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    out = []
    for m in metrics:
        parts = m["name"].split(".")
        if len(parts) == 3 and parts[0] in LAYERS and parts[1] != BUILD:
            out.append(m["name"])
    return out


def test_benchmark_declares_layer_metrics():
    assert len(_layer_metrics()) >= 1


@pytest.mark.parametrize("metric", _layer_metrics())
def test_layer_metric_names_a_traced_object(metric):
    layer, name, _ = metric.split(".")
    module = importlib.import_module(f"szilard.{layer}")
    obj = getattr(module, name, None)
    function = (
        inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    )
    counted = (layer, name) in COUNTED_CLASSES and inspect.isclass(obj)
    assert function or counted, metric
