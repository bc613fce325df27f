"""perfbench/spans.py patches library names by module attribute (LAYER_CALLS)
and wraps cli.parse_model_config; a rename or deletion in src/ would fail only
the traced benchmark run.  The file is read here, never imported or edited."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from bachelier_wings import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_calls() -> tuple:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_CALLS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no LAYER_CALLS")


def test_every_name_perfbench_patches_resolves():
    calls = _layer_calls()
    assert len(calls) > 0
    missing = [f"{module}.{attr}" for module, attr, _ in calls
               if not callable(getattr(importlib.import_module(f"bachelier_wings.{module}"), attr, None))]
    assert missing == []
    assert callable(cli.parse_model_config)
