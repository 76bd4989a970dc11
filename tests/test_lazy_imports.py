"""Lazy loading: one public surface, numpy only where needed, and no mpmath.

``import projheat`` binds the exact modules eagerly and the numpy-backed
names (heat, kernels, orthopoly) on first access. The exact-table commands
and the exact ``verify`` scopes load neither numpy nor mpmath, and no
command loads mpmath: it is a test dependency only (tests/test_golden.py
runs every golden command with mpmath blocked). Checks of what a command
imports run in a fresh interpreter, because this process has already
imported everything.
"""

from __future__ import annotations

import importlib
import json

import pytest
from conftest import run_fresh

import projheat

# Every name the package bound when it imported all its modules eagerly, by
# defining module as the package imports it.
PUBLIC = {
    "errors": ("AntipodalDegenerate", "Binary64Overflow", "DimensionMismatch", "IndexOutOfRange",
               "NonIntegerDimension", "NonPositiveTime", "PoleError", "ProjheatError",
               "TruncationFailed", "UnsupportedN", "UnsupportedNu"),
    "exactnum": ("bernoulli_number", "bernoulli_polynomial", "binomial_general", "pochhammer",
                 "power_sum", "rational_str", "theta2_series_coefficient"),
    "heat": ("heat_kernel_integral", "heat_kernel_integral_hi", "heat_kernel_series",
             "theta_deriv", "trace_direct"),
    "heatcoeff": ("HeatCoeffTable", "asymptotic_sum", "asymptotic_trace", "b_coefficients",
                  "c_coefficients", "heat_coeff_table", "nu_zero_u"),
    "kernels": ("KernelEval", "ProjPoint", "as_point", "fs_distance", "herm",
                "kernel_diagonal_volume_check", "monopole_basis", "reproducing_kernel",
                "zaremba_sum_n1"),
    "orthopoly": ("gauss2f1_terminating", "jacobi"),
    "spectrum": ("DecompositionPoly", "SpectralPoint", "decompose_multiplicity",
                 "dimension_gamma_form", "dimension_poly_form", "dimension_product_form",
                 "eigenvalue_beta", "spherical_harmonic_dims"),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]
# One numpy-backed name of each module the package binds lazily.
LAZY = {"heat": "heat_kernel_series", "kernels": "reproducing_kernel", "orthopoly": "jacobi"}

EXACT_COMMANDS = {
    "coeffs": ["coeffs", "--n=3", "--nu=0", "--J=6"],
    "dims": ["dims", "--n=2", "--two-nu=1", "--m-max=10"],
    "decomp": ["decomp", "--n=4", "--two-nu=2"],
    "trace-compare": ["trace-compare", "--n=1", "--nu=1", "--J=6", "--t=0.1,0.05,0.02"],
}
NUMERIC_COMMANDS = {
    "heat-eval": ["heat-eval", "--n=2", "--two-nu=1", "--t=0.5", "--z=0.3+0.2j,0.1",
                  "--w=0.2,-0.4j"],
    "kernel": ["kernel", "--n=1", "--two-nu=2", "--m=1", "--z=0.3+0.2j", "--w=0.1-0.4j"],
}

# What a fresh `verify --scope` of each scope that needs no numpy loads of the two.
VERIFY_SCOPES = {"dims": [], "paper8": [], "theta": [], "trace": []}


def _fresh(code: str):
    """Run ``code`` in a new interpreter on this checkout's sources; its stdout as JSON."""
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_all_lists_every_public_name():
    assert sorted(projheat.__all__) == sorted(name for _, name in NAMES)
    # dir() lists the lazy names before any of them is looked up
    assert set(projheat.__all__) <= set(_fresh("import json, projheat; "
                                               "print(json.dumps(dir(projheat)))"))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from projheat import *", namespace)
    missing = [name for _, name in NAMES if name not in namespace]
    assert not missing, f"from projheat import * leaves unbound: {missing}"


@pytest.mark.parametrize("module,name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_package_name_is_the_defining_object(module, name):
    assert getattr(projheat, name) is getattr(importlib.import_module(f"projheat.{module}"), name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        projheat.no_such_name  # noqa: B018


@pytest.mark.parametrize("module,name", LAZY.items())
def test_lazy_lookup_imports_only_its_module(module, name):
    # the projheat modules a first lookup of one name loads are exactly those
    # that importing its defining module loads, and no others
    loaded = "sorted(m for m in set(sys.modules) - before if m.startswith('projheat'))"
    by_lookup = _fresh(f"import json, sys, projheat; before = set(sys.modules); "
                       f"projheat.{name}; print(json.dumps({loaded}))")
    by_import = _fresh(f"import json, sys, projheat; before = set(sys.modules); "
                       f"import projheat.{module}; print(json.dumps({loaded}))")
    assert f"projheat.{module}" in by_lookup
    assert by_lookup == by_import


def test_import_boundary_of_each_command():
    # numpy and mpmath after `import projheat`, `import projheat.cli` and each
    # command, run in this order in one fresh interpreter
    commands = {**EXACT_COMMANDS, **NUMERIC_COMMANDS}
    code = f"""
import contextlib, io, json, sys

def heavy():
    return sorted({{"numpy", "mpmath"}} & set(sys.modules))

report = {{}}
import projheat
report["import projheat"] = heavy()
import projheat.cli
report["import projheat.cli"] = heavy()
for name, argv in {json.dumps(commands)}.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = projheat.cli.main(argv)
    report[name] = heavy() if code == 0 else f"exit {{code}}"
print(json.dumps(report))
"""
    report = _fresh(code)
    assert list(report) == ["import projheat", "import projheat.cli", *commands]
    for step in ("import projheat", "import projheat.cli", *EXACT_COMMANDS):
        assert report[step] == [], f"{step} loaded {report[step]}"
    for step in NUMERIC_COMMANDS:
        assert report[step] == ["numpy"], f"{step} loaded {report[step]}"


@pytest.mark.parametrize("scope,heavy", VERIFY_SCOPES.items())
def test_verify_scope_import_boundary(scope, heavy):
    # one fresh interpreter per scope, so no earlier scope has loaded anything
    report = _fresh(f"""
import contextlib, io, json, sys
import projheat.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = projheat.cli.main(["verify", "--scope", {scope!r}])
print(json.dumps([code, sorted({{"numpy", "mpmath"}} & set(sys.modules))]))
""")
    assert report == [0, heavy]

