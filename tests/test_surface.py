"""The package surface that the benchmark's per-layer tracer wraps."""
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_span_resolves(monkeypatch):
    # The tracer replaces each (module, attribute) of SPANS in a benchmark
    # child; a name missing here would fail only inside a traced run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    assert ("records.write_csv", "records", "TrajectoryRecord.write_csv") in tracing.SPANS
    for prefix, module_name, attr in tracing.SPANS:
        target = importlib.import_module(f"ringtraffic.{module_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"{prefix}: ringtraffic.{module_name}.{attr} not found"
            target = getattr(target, part)
        assert callable(target), prefix

