"""Exact-plus-numeric spectral engine for magnetic Laplacians on P^n(C).

Eigenvalues, eigenspace dimensions, reproducing kernels, heat kernels in
two independent representations, spectral traces, and exact small-time
heat coefficients, each cross-verified against an independent computation
path. Exact quantities are arbitrary-precision rationals; numerics are
binary64 with truncation error bounds (rounding not included).
"""

from __future__ import annotations

from .errors import (
    AntipodalDegenerate,
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
from .heat import (
    big_theta,
    heat_kernel_integral,
    heat_kernel_integral_hi,
    heat_kernel_series,
    theta2,
    theta3,
    theta_deriv,
    trace_direct,
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
from .kernels import (
    KernelEval,
    ProjPoint,
    as_point,
    fs_distance,
    herm,
    kernel_diagonal_volume_check,
    monopole_basis,
    reproducing_kernel,
    zaremba_sum_n1,
)
from .orthopoly import (
    gauss2f1_terminating,
    jacobi,
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

__version__ = "0.1.0"
