"""Public surface: every exported name exists and has a caller, every benchmark
probe is a plain function, the cached radial rule is built once, read-only and
shared by the plane rule, and every entry that takes a spectral label or a
time applies the one rule for it."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projheat
from projheat import kernels, quadrature
from projheat.errors import NonPositiveTime, ProjheatError
from projheat.heat import (
    heat_kernel_integral,
    heat_kernel_integral_hi,
    heat_kernel_series,
    theta_deriv,
    trace_direct,
)
from projheat.heatcoeff import (
    asymptotic_sum,
    asymptotic_trace,
    b_coefficients,
    c_coefficients,
    heat_coeff_table,
    nu_zero_u,
)
from projheat.spectrum import decompose_multiplicity

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
    # a probe copies fn.__code__; an lru_cache wrapper has none, and any other wrapper, even
    # one made with functools.wraps, owns a different code object. So caches live in private
    # helpers (exactnum._bernoulli_row, spectrum._poly_dimension_row), never on a target.
    assert hasattr(target, "__code__"), f"projheat.{module}.{function} has no __code__"
    assert inspect.isfunction(target) and target.__code__.co_name == function, (
        f"projheat.{module}.{function} is wrapped")


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
    "decompose_multiplicity": (lambda n, two_nu, t: decompose_multiplicity(n, two_nu / 2),
                               "n two_nu"),
    # the exact tables at nu = 0, with J as well
    "c_coefficients": (lambda n, two_nu, t, J=3: c_coefficients(n, 0, J), "n J"),
    "b_coefficients": (lambda n, two_nu, t, J=3: b_coefficients(n, 0, J), "n J"),
    "heat_coeff_table": (lambda n, two_nu, t, J=3: heat_coeff_table(n, 0, J), "n J"),
    "nu_zero_u": (lambda n, two_nu, t, J=3: nu_zero_u(n, J), "n J"),
}
BAD = {"n": [0, 1.5], "two_nu": [-1, 0.5], "t": [0.0, math.nan, math.inf, 0.5 + 0j],
       "J": [-1, 2.0, 2.5]}
CASES = [(entry, arg, bad) for entry, (_, takes) in LABELLED.items()
         for arg in takes.split() for bad in BAD[arg]]


@pytest.mark.parametrize("entry,arg,bad", CASES, ids=[f"{e}-{a}={b}" for e, a, b in CASES])
def test_label_and_time_rules(entry, arg, bad):
    call, _ = LABELLED[entry]
    args = {"n": 1, "two_nu": 1, "t": 0.5, arg: bad}
    with pytest.raises(NonPositiveTime if arg == "t" else ValueError):
        call(**args)


def _fields(result):
    """A KernelEval's fields, which compare by value as its generated == did; a KernelEval
    itself compares by identity. Any other result as it is."""
    return dataclasses.astuple(result) if isinstance(result, kernels.KernelEval) else result


@pytest.mark.parametrize("entry", [e for e, (_, takes) in LABELLED.items() if takes != "t"])
def test_numpy_integer_labels_are_accepted(entry):
    call, takes = LABELLED[entry]
    j = {"J": np.int64(3)} if "J" in takes.split() else {}
    assert _fields(call(n=np.int64(1), two_nu=np.int32(1), t=0.5, **j)) == \
        _fields(call(n=1, two_nu=1, t=0.5))


def test_table_of_a_numpy_j_serializes():
    table = heat_coeff_table(np.int64(1), 1, np.int64(3))
    assert type(table.n) is int and type(table.J) is int
    assert json.dumps(table.to_json_dict()) == json.dumps(heat_coeff_table(1, 1, 3).to_json_dict())


# entry -> call(n, nu, J) of each exact-table entry
EXACT_TABLES = {
    "decompose_multiplicity": lambda n, nu, J: decompose_multiplicity(n, nu),
    "c_coefficients": c_coefficients,
    "b_coefficients": b_coefficients,
    "heat_coeff_table": heat_coeff_table,
    "nu_zero_u": lambda n, nu, J: nu_zero_u(n, J),
}


def _label(top: int):
    """An int, a float or a numpy integer in [-2, top]."""
    ints = st.integers(-2, top)
    return st.one_of(ints, st.floats(-2, top), ints.map(np.int64))


def _nu(top: int):
    """A label in [-2, top], a numpy float or a Fraction there, or a non-finite float."""
    floats = st.floats(-2, top)
    return st.one_of(_label(top), floats.map(np.float32), floats.map(np.float64),
                     st.fractions(-2, top, max_denominator=4),
                     st.sampled_from([math.inf, -math.inf, math.nan]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(EXACT_TABLES)), _label(6), _nu(4), _label(12))
def test_exact_tables_return_or_raise_typed_errors(entry, n, nu, J):
    # a label of the wrong type or range is a ValueError or a ProjheatError, never a bare
    # TypeError from deep inside the table
    try:
        EXACT_TABLES[entry](n, nu, J)
    except (ValueError, ProjheatError):
        pass


# entry -> call(z, w) on one pair of n = 1 chart points
POINTED = {
    "heat_kernel_series": lambda z, w: heat_kernel_series(1, 1, 0.5, z, w),
    "heat_kernel_integral": lambda z, w: heat_kernel_integral(1, 1, 0.5, z, w),
    "heat_kernel_integral_hi": lambda z, w: heat_kernel_integral_hi(1, 0.5, z, w),
    "reproducing_kernel": lambda z, w: kernels.reproducing_kernel(1, 1, 1, z, w),
    "fs_distance": kernels.fs_distance,
}


NUMPY_SCALARS = [np.int64(0), np.float32(0.25), np.complex64(0.1 + 0.2j)]


@pytest.mark.parametrize("coordinate", NUMPY_SCALARS, ids=lambda x: type(x).__name__)
@pytest.mark.parametrize("entry", POINTED)
def test_numpy_scalar_is_one_coordinate(entry, coordinate):
    call = POINTED[entry]
    assert _fields(call(coordinate, W)) == _fields(call(coordinate.item(), W))
    assert _fields(call(Z, coordinate)) == _fields(call(Z, coordinate.item()))


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
    expected = _fields(call(n=1, two_nu=1, t=0.5))
    assert _fields(call(n=1, two_nu=1, t=np.float64(0.5))) == expected
    assert _fields(call(n=1, two_nu=1, t=np.array(0.5))) == expected  # 0-d
    assert _fields(call(n=1, two_nu=1, t=1)) == _fields(call(n=1, two_nu=1, t=1.0))
