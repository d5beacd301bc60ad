"""The package surface: the names the benchmark's per-layer tracer wraps,
and the README's library quick start."""
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Runs a Python block statement by statement, as an interactive session would,
# and prints the value of every expression statement as JSON.
QUICK_START_RUNNER = """
import ast, dataclasses, json, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule raises ImportError
sys.path.insert(0, sys.argv[1])
scope, values = {}, []
for node in ast.parse(sys.stdin.read()).body:
    if isinstance(node, ast.Expr):
        values.append(eval(compile(ast.Expression(node.value), "README", "eval"), scope))
    else:
        exec(compile(ast.Module([node], []), "README", "exec"), scope)
plain = [dataclasses.asdict(v) if dataclasses.is_dataclass(v) else getattr(v, "item", lambda: v)()
         for v in values]
print(json.dumps(plain))
"""


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


def test_readme_quick_start_runs_without_scipy_and_gives_its_values():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    result = subprocess.run(
        [sys.executable, "-c", QUICK_START_RUNNER, str(ROOT / "src")],
        input=block, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    summary, tau_c, reason, imbalance = json.loads(result.stdout)
    assert summary["q_star"] == pytest.approx(0.574, abs=5e-4)
    assert summary["rho_star"] == pytest.approx(0.0336, abs=5e-5)
    assert tau_c == pytest.approx(0.684, abs=5e-4)
    assert reason == "collision"
    assert imbalance == 0
