"""Public surface: every exported name exists and has a caller, every benchmark
probe is a plain function, the cached radial rule is built once, read-only and
shared by the plane rule, and every entry that takes a spectral label or a
time applies the one rule for it."""

from __future__ import annotations

import ast
import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import projheat
from projheat import kernels, quadrature
from projheat.errors import NonPositiveTime
from projheat.heat import (
    heat_kernel_integral,
    heat_kernel_integral_hi,
    heat_kernel_series,
    theta_deriv,
    trace_direct,
)
from projheat.heatcoeff import asymptotic_sum, asymptotic_trace, b_coefficients

MODULES = sorted(m.name for m in pkgutil.iter_modules(projheat.__path__) if m.name != "__main__")
ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

# Public names that no module, benchmark script or README line uses, each
# kept for the tests that need it as an independent reference.
LIBRARY_ONLY = {
    "gauss2f1_terminating": "the terminating 2F1 the exact Jacobi path is tested against",
    "plane_mu1_rule": "the plane quadrature behind the projection, mass and semigroup tests",
    "spherical_harmonic_dims": "the independent dimension oracle in test_spectrum.py",
}


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


def _public_names() -> set[str]:
    """Every name in projheat.__all__ and in each projheat.<module>.__all__."""
    names = set(projheat.__all__)
    for name in MODULES:
        names.update(getattr(importlib.import_module(f"projheat.{name}"), "__all__", ()))
    return names


def _names_in_use() -> set[str]:
    """Every Name and Attribute of the package's and the benchmark's sources.

    An import binds an alias, not a Name, so a re-export alone is no use.
    """
    paths = [*(ROOT / "src" / "projheat").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    public = _public_names()
    covered = _names_in_use() | set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = sorted(public - covered - LIBRARY_ONLY.keys())
    assert not unused, f"public names with no caller, README line or LIBRARY_ONLY entry: {unused}"
    stale = sorted(name for name in LIBRARY_ONLY if name not in public or name in covered)
    assert not stale, f"LIBRARY_ONLY entries that are not public or have a caller: {stale}"


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


@pytest.mark.parametrize("nr,ntheta", [(32, 32), (200, 200), (17, 5)])
def test_plane_rule_splits_the_radial_rule_over_angles(nr, ntheta):
    rho, wr = quadrature.radial_mu1_rule(nr)
    pts, w = quadrature.plane_mu1_rule(nr, ntheta)
    pts, w = pts.reshape(nr, ntheta), w.reshape(nr, ntheta)
    assert np.array_equal(pts[:, 0].real, rho) and not pts[:, 0].imag.any()
    assert np.all(np.abs(w.sum(axis=1) - wr) <= 1e-15 * wr)


Z, W = (0.3 + 0.2j,), (0.1 - 0.4j,)
# entry -> (call(n, two_nu, t), the arguments the entry takes)
LABELLED = {
    "heat_kernel_series": (lambda n, two_nu, t: heat_kernel_series(n, two_nu, t, Z, W),
                           "n two_nu t"),
    "heat_kernel_integral": (lambda n, two_nu, t: heat_kernel_integral(n, two_nu, t, Z, W),
                             "n two_nu t"),
    "heat_kernel_integral_hi": (lambda n, two_nu, t: heat_kernel_integral_hi(n, t, Z, W), "n t"),
    "theta_deriv": (lambda n, two_nu, t: theta_deriv(2, 1, t), "t"),
    "trace_direct": (lambda n, two_nu, t: trace_direct(n, two_nu, t), "n two_nu t"),
    "asymptotic_trace": (lambda n, two_nu, t: asymptotic_trace(n, 0, t, 4), "n t"),
    "asymptotic_sum": (lambda n, two_nu, t: asymptotic_sum(1, b_coefficients(1, 0, 4), t), "t"),
    "reproducing_kernel": (lambda n, two_nu, t: kernels.reproducing_kernel(n, two_nu, 0, Z, W),
                           "n two_nu"),
    "kernel_diagonal_volume_check": (
        lambda n, two_nu, t: kernels.kernel_diagonal_volume_check(n, two_nu, 0), "n two_nu"),
    "monopole_basis": (lambda n, two_nu, t: kernels.monopole_basis(two_nu, 0, 0, 0.3j), "two_nu"),
}
BAD = {"n": [0, 1.5], "two_nu": [-1, 0.5], "t": [0.0, math.nan, math.inf, 0.5 + 0j]}
CASES = [(entry, arg, bad) for entry, (_, takes) in LABELLED.items()
         for arg in takes.split() for bad in BAD[arg]]


@pytest.mark.parametrize("entry,arg,bad", CASES, ids=[f"{e}-{a}={b}" for e, a, b in CASES])
def test_label_and_time_rules(entry, arg, bad):
    call, _ = LABELLED[entry]
    args = {"n": 1, "two_nu": 1, "t": 0.5, arg: bad}
    with pytest.raises(NonPositiveTime if arg == "t" else ValueError):
        call(**args)


@pytest.mark.parametrize("entry", [e for e, (_, takes) in LABELLED.items() if takes != "t"])
def test_numpy_integer_labels_are_accepted(entry):
    call, _ = LABELLED[entry]
    assert call(n=np.int64(1), two_nu=np.int32(1), t=0.5) == call(n=1, two_nu=1, t=0.5)


# entry -> call(z, w) on one pair of n = 1 chart points
POINTED = {
    "heat_kernel_series": lambda z, w: heat_kernel_series(1, 1, 0.5, z, w),
    "heat_kernel_integral": lambda z, w: heat_kernel_integral(1, 1, 0.5, z, w),
    "heat_kernel_integral_hi": lambda z, w: heat_kernel_integral_hi(1, 0.5, z, w),
    "reproducing_kernel": lambda z, w: kernels.reproducing_kernel(1, 1, 1, z, w),
    "fs_distance": kernels.fs_distance,
}


@pytest.mark.parametrize("entry", POINTED)
def test_non_finite_coordinate_is_rejected(entry):
    for z, w in (((math.nan,), W), (Z, (complex(0.1, math.inf),))):
        with pytest.raises(ValueError, match="non-finite coordinate"):
            POINTED[entry](z, w)


ONE_TIME = [e for e, (_, takes) in LABELLED.items() if "t" in takes.split()]
NOT_ONE_TIME = {"list": [0.5, 0.1], "tuple": (0.5,), "ndarray1": np.array([0.5]),
                "ndarray2": np.array([0.5, 0.2])}


@pytest.mark.parametrize("t", NOT_ONE_TIME.values(), ids=NOT_ONE_TIME.keys())
@pytest.mark.parametrize("entry", ONE_TIME)
def test_time_that_is_not_one_number_is_typed(entry, t):
    call, _ = LABELLED[entry]
    with pytest.raises(NonPositiveTime):
        call(n=1, two_nu=1, t=t)


@pytest.mark.parametrize("entry", ONE_TIME)
def test_time_of_any_real_scalar_type_is_accepted(entry):
    call, _ = LABELLED[entry]
    assert call(n=1, two_nu=1, t=np.float64(0.5)) == call(n=1, two_nu=1, t=0.5)
    assert call(n=1, two_nu=1, t=np.array(0.5)) == call(n=1, two_nu=1, t=0.5)  # 0-d
    assert call(n=1, two_nu=1, t=1) == call(n=1, two_nu=1, t=1.0)
