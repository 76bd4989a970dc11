"""Exact-plus-numeric spectral engine for magnetic Laplacians on P^n(C).

Eigenvalues, eigenspace dimensions, reproducing kernels, heat kernels in
two independent representations, spectral traces, and exact small-time
heat coefficients, each cross-verified against an independent computation
path. Exact quantities are arbitrary-precision rationals; numerics are
binary64 with rigorous truncation bounds.
"""

from __future__ import annotations

from .errors import (
    AntipodalDegenerate,
    DegenerateNormalization,
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
    Rational,
    bernoulli_number,
    bernoulli_polynomial,
    binomial_general,
    parse_rational,
    pochhammer,
    power_sum,
    rational_str,
    theta2_series_coefficient,
)
from .heat import (
    QuadratureConfig,
    ThetaSpec,
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
    DiskIndex,
    JacobiParams,
    disk_polynomial,
    gauss2f1_terminating,
    gegenbauer_eval,
    jacobi,
    jacobi_at_one,
    jacobi_eval,
    normalized_jacobi_R,
)
from .spectrum import (
    DecompositionPoly,
    SpectralPoint,
    decompose_multiplicity,
    dimension_gamma_form,
    dimension_poly_form,
    dimension_product_form,
    eigenvalue_beta,
    lambda_cap,
    landau_tau,
    spherical_harmonic_dims,
)

__version__ = "0.1.0"
