"""The benchmark's output checks reach the library through its exported
names: every ``hmm.<name>`` in perfbench/checks.py must exist and be in
``hmmentropy.__all__``."""

import ast
from pathlib import Path

import hmmentropy

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def test_benchmark_checks_call_exported_names():
    module = ast.parse(CHECKS.read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(module)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "hmm"}
    assert "smooth_chain" in names
    assert sorted(name for name in names if name not in hmmentropy.__all__
                  or not hasattr(hmmentropy, name)) == []
