"""Public surface: every exported name exists, every benchmark probe is a plain
function, and the cached radial rule is built once and read-only."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import projheat
from projheat import kernels, quadrature

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
    # a probe copies fn.__code__; an lru_cache wrapper has none
    assert hasattr(target, "__code__"), f"projheat.{module}.{function} has no __code__"


def test_monopole_norms_build_the_radial_rule_once(monkeypatch):
    seen = []
    gauss_legendre = quadrature.gauss_legendre

    def recording(k, a, b):
        seen.append(k)
        return gauss_legendre(k, a, b)

    quadrature._radial_mu1_arrays.cache_clear()
    monkeypatch.setattr(quadrature, "gauss_legendre", recording)
    for k in (-1, 0, 1, 2):
        assert kernels.monopole_norm_sq(1, 1, k, nr=96) == pytest.approx(1.0, abs=1e-10)
    assert seen == [96]


def test_radial_rule_arrays_reject_writes():
    rho, w = quadrature.radial_mu1_rule(32)
    assert rho is quadrature.radial_mu1_rule(32)[0]
    for arr in (rho, w):
        with pytest.raises(ValueError):
            arr[0] = 1.0
