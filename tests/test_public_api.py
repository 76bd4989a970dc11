"""Public surface: every exported name exists, and so does every benchmark probe."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import projheat

MODULES = sorted(m.name for m in pkgutil.iter_modules(projheat.__path__) if m.name != "__main__")
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_functions() -> tuple[tuple[str, str], ...]:
    """The tracer's FUNCTIONS tuple, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUNCTIONS assignment in {TRACER}")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(f"projheat.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"projheat.{name}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from projheat.{name} import *", namespace)


@pytest.mark.parametrize("module,function", _tracer_functions())
def test_tracer_probe_targets_resolve(module, function):
    target = getattr(importlib.import_module(f"projheat.{module}"), function, None)
    assert callable(target), f"perfbench/tracer.py probes missing projheat.{module}.{function}"
