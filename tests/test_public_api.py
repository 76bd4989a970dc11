"""Public surface: every exported name exists and has a caller, every benchmark
probe is a plain function, the cached radial rule is built once, read-only and
shared by the plane rule, every entry that takes an integer argument or a
time applies the one rule for it, and only that rule calls operator.index."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import math
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projheat
from projheat import kernels, quadrature, verify
from projheat.errors import NonPositiveTime, ProjheatError
from projheat.exactnum import (
    bernoulli_number,
    bernoulli_polynomial,
    binomial_general,
    pochhammer,
    power_sum,
    theta2_series_coefficient,
)
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
    printed_tau_n4,
)
from projheat.orthopoly import gauss2f1_terminating, gegenbauer_values, jacobi
from projheat.spectrum import decompose_multiplicity, spherical_harmonic_dims

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


def _index_uses(node: ast.AST, where: str, modules: set, names: set) -> list[str]:
    """The enclosing definition (module.function) of each use of operator.index under node:
    an attribute ``index`` of a name in modules, or a name in names."""
    uses = []
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        if (isinstance(child, ast.Attribute) and child.attr == "index"
                and isinstance(child.value, ast.Name) and child.value.id in modules) or (
                isinstance(child, ast.Name) and child.id in names):
            uses.append(inner)
        uses += _index_uses(child, inner, modules, names)
    return uses


def _package_index_uses(sources: dict[str, str]) -> list[str]:
    """_index_uses over each module of sources (stem -> text), under the aliases the module
    imports: ``import operator [as x]`` and ``from operator import index [as y]``."""
    uses = []
    for stem, text in sorted(sources.items()):
        tree = ast.parse(text)
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        modules = {a.asname or a.name for n in imports if isinstance(n, ast.Import)
                   for a in n.names if a.name == "operator"}
        names = {a.asname or a.name for n in imports
                 if isinstance(n, ast.ImportFrom) and n.module == "operator"
                 for a in n.names if a.name == "index"}
        uses += _index_uses(tree, stem, modules, names)
    return uses


def test_operator_index_is_used_only_by_the_integer_rule():
    # every integer argument goes through exactnum._integer, so no entry point can read one
    # by a rule of its own
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "projheat").glob("*.py")}
    assert _package_index_uses(sources) == ["exactnum._integer"]


def test_index_guard_sees_every_spelling():
    sources = {"a": "import operator as op\ndef f(k):\n    return op.index(k)\n",
               "b": "from operator import index\nclass C:\n    def g(self, k):\n"
                    "        return list(map(index, k))\n",
               "c": "import operator\nK = operator.index(3)\n"}
    assert _package_index_uses(sources) == ["a.f", "b.C.g", "c"]


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
    "theta_deriv": (lambda n, two_nu, t, which=2, p=1: theta_deriv(which, p, t), "t which p"),
    "trace_direct": (lambda n, two_nu, t: trace_direct(n, two_nu, t), "n two_nu t"),
    "asymptotic_trace": (lambda n, two_nu, t: asymptotic_trace(n, 0, t, 4), "n t"),
    "asymptotic_sum": (lambda n, two_nu, t: asymptotic_sum(n, b_coefficients(1, 0, 4), t), "n t"),
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
    # the orders and degrees of exactnum and orthopoly
    "jacobi": (lambda n, two_nu, t, k=2: jacobi(k, 1, 2, 0.3), "k"),
    "gegenbauer_values": (
        lambda n, two_nu, t, kmax=4: gegenbauer_values(kmax, 1.0, np.array([0.3])), "kmax"),
    "gauss2f1_terminating": (
        lambda n, two_nu, t, k=2: gauss2f1_terminating(k, 1, 3, Fraction(1, 2)), "k"),
    "bernoulli_number": (lambda n, two_nu, t, d=4: bernoulli_number(d), "d"),
    "bernoulli_polynomial": (lambda n, two_nu, t, d=4: bernoulli_polynomial(d, Fraction(1, 3)),
                             "d"),
    "theta2_series_coefficient": (lambda n, two_nu, t, d=4: theta2_series_coefficient(d), "d"),
    "pochhammer": (lambda n, two_nu, t, k=2: pochhammer(Fraction(1, 2), k), "k"),
    "binomial_general": (lambda n, two_nu, t, k=2: binomial_general(Fraction(1, 2), k), "k"),
    "power_sum": (lambda n, two_nu, t, m=2, q=2: power_sum(m, q, Fraction(1, 2)), "m q"),
    "spherical_harmonic_dims": (lambda n, two_nu, t, p=1, q=2: spherical_harmonic_dims(n, p, q),
                                "n p q"),
    # the node counts of the quadrature rules
    "gauss_legendre": (lambda n, two_nu, t, nodes=4: quadrature.gauss_legendre(nodes, 0.0, 1.0),
                       "nodes"),
    "midpoint_rule": (lambda n, two_nu, t, nodes=4: quadrature.midpoint_rule(nodes, 0.0, 1.0),
                      "nodes"),
    "radial_mu1_rule": (lambda n, two_nu, t, nr=8: quadrature.radial_mu1_rule(nr), "nr"),
    "plane_mu1_rule": (lambda n, two_nu, t, nr=8, ntheta=4: quadrature.plane_mu1_rule(nr, ntheta),
                       "nr ntheta"),
    "monopole_norm_sq": (lambda n, two_nu, t, nr=8: kernels.monopole_norm_sq(1, 0, 0, nr), "nr"),
    # the printed n = 4 head table, and verify's nmax and seed
    "printed_tau_n4": (lambda n, two_nu, t, nu=2: printed_tau_n4(nu), "nu"),
    "run_verify": (lambda n, two_nu, t, nmax=1, seed=3: verify.run_verify("dims", nmax, seed),
                   "nmax seed"),
}
ORDER = [-1, 2.0, 2.5]  # an integer argument whose lower bound is 0 or 1
COUNT = [0, 2.0, 2.5]  # a node count, at least 1
BAD = {"n": [0, 1.5], "two_nu": [-1, 0.5], "t": [0.0, math.nan, math.inf, 0.5 + 0j],
       "J": ORDER, "k": ORDER, "kmax": ORDER, "d": ORDER, "m": ORDER, "p": ORDER, "q": ORDER,
       "nu": ORDER, "seed": ORDER, "which": [1.5, 2.0, 4],
       "nodes": COUNT, "nr": COUNT, "ntheta": COUNT, "nmax": COUNT}
# the value of each integer argument other than n and two_nu, as the entries default it
DEFAULT = {"J": 3, "k": 2, "kmax": 4, "d": 4, "m": 2, "p": 1, "q": 2, "nu": 2, "seed": 3,
           "which": 2, "nodes": 4, "nr": 8, "ntheta": 4, "nmax": 1}
CASES = [(entry, arg, bad) for entry, (_, takes) in LABELLED.items()
         for arg in takes.split() for bad in BAD[arg]]


@pytest.mark.parametrize("entry,arg,bad", CASES, ids=[f"{e}-{a}={b}" for e, a, b in CASES])
def test_label_and_time_rules(entry, arg, bad):
    # a bad integer argument is a ValueError naming it; an entry that takes nu names nu
    call, _ = LABELLED[entry]
    args = {"n": 1, "two_nu": 1, "t": 0.5, arg: bad}
    if arg == "t":
        with pytest.raises(NonPositiveTime):
            call(**args)
    else:
        name = r"(two_|2\*)?nu" if arg == "two_nu" else arg
        with pytest.raises(ValueError, match=rf"(^|\W){name} must be"):
            call(**args)


def _fields(result):
    """A KernelEval's fields, which compare by value as its generated == did; a KernelEval
    itself compares by identity. An array as a list, a tuple item by item, and any other
    result as it is."""
    if isinstance(result, kernels.KernelEval):
        return dataclasses.astuple(result)
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, tuple):
        return [_fields(item) for item in result]
    return result


@pytest.mark.parametrize("entry", [e for e, (_, takes) in LABELLED.items() if takes != "t"])
def test_numpy_integer_labels_are_accepted(entry):
    call, takes = LABELLED[entry]
    others = [arg for arg in takes.split() if arg in DEFAULT]
    numpy = {arg: np.int8(DEFAULT[arg]) for arg in others}
    assert _fields(call(n=np.int64(1), two_nu=np.int32(1), t=0.5, **numpy)) == \
        _fields(call(n=1, two_nu=1, t=0.5, **{arg: DEFAULT[arg] for arg in others}))


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


# entry -> call(z, w) of an n = 1 entry that takes one complex coordinate, not a chart point
ONE_COORDINATE = {
    "zaremba_sum_n1": lambda z, w: kernels.zaremba_sum_n1(1, 1, *z, *w),
    "monopole_basis": lambda z, w: [kernels.monopole_basis(1, 1, 0, c) for c in (*z, *w)],
    "monopole_basis-ndarray": lambda z, w: kernels.monopole_basis(1, 1, 0, np.array([0, *z, *w])),
}


@pytest.mark.parametrize("entry", [*POINTED, *ONE_COORDINATE])
def test_non_finite_coordinate_is_rejected(entry):
    call = POINTED.get(entry) or ONE_COORDINATE[entry]
    for z, w in (((math.nan,), W), (Z, (complex(0.1, math.inf),))):
        with pytest.raises(ValueError, match="non-finite coordinate"):
            call(z, w)


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
