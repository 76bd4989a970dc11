"""Exact-plus-numeric spectral engine for magnetic Laplacians on P^n(C).

Eigenvalues, eigenspace dimensions, reproducing kernels, heat kernels in
two independent representations, spectral traces, and exact small-time
heat coefficients, each cross-verified against an independent computation
path. Exact quantities are arbitrary-precision rationals; numerics are
binary64 with truncation error bounds (rounding not included).
"""

from __future__ import annotations

import importlib

from .errors import (
    AntipodalDegenerate,
    Binary64Overflow,
    DimensionMismatch,
    IndexOutOfRange,
    NonIntegerDimension,
    NonPositiveTime,
    PoleError,
    ProjheatError,
    TruncationFailed,
    UnsupportedN,
    UnsupportedNu,
)
from .exactnum import (
    bernoulli_number,
    bernoulli_polynomial,
    binomial_general,
    pochhammer,
    power_sum,
    rational_str,
    theta2_series_coefficient,
)
from .heatcoeff import (
    HeatCoeffTable,
    asymptotic_sum,
    asymptotic_trace,
    b_coefficients,
    c_coefficients,
    heat_coeff_table,
    nu_zero_u,
)
from .spectrum import (
    DecompositionPoly,
    SpectralPoint,
    decompose_multiplicity,
    dimension_gamma_form,
    dimension_poly_form,
    dimension_product_form,
    eigenvalue_beta,
    spherical_harmonic_dims,
)
from .theta import theta_deriv, trace_direct

# The numpy-backed names, bound on first access (PEP 562), so that
# ``import projheat`` and the exact-table commands do not load numpy. A
# lookup imports only the module that defines the name.
_LAZY = {
    "heat": ("heat_kernel_integral", "heat_kernel_integral_hi", "heat_kernel_series"),
    "kernels": ("KernelEval", "ProjPoint", "as_point", "fs_distance", "herm",
                "kernel_diagonal_volume_check", "monopole_basis", "reproducing_kernel",
                "zaremba_sum_n1"),
    "orthopoly": ("gauss2f1_terminating", "jacobi"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "AntipodalDegenerate",
    "Binary64Overflow",
    "DimensionMismatch",
    "IndexOutOfRange",
    "NonIntegerDimension",
    "NonPositiveTime",
    "PoleError",
    "ProjheatError",
    "TruncationFailed",
    "UnsupportedN",
    "UnsupportedNu",
    "bernoulli_number",
    "bernoulli_polynomial",
    "binomial_general",
    "pochhammer",
    "power_sum",
    "rational_str",
    "theta2_series_coefficient",
    "HeatCoeffTable",
    "asymptotic_sum",
    "asymptotic_trace",
    "b_coefficients",
    "c_coefficients",
    "heat_coeff_table",
    "nu_zero_u",
    "DecompositionPoly",
    "SpectralPoint",
    "decompose_multiplicity",
    "dimension_gamma_form",
    "dimension_poly_form",
    "dimension_product_form",
    "eigenvalue_beta",
    "spherical_harmonic_dims",
    "theta_deriv",
    "trace_direct",
    *_LAZY_MODULE,
]


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
