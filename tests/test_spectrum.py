"""Eigenvalues, multiplicities, and the parity decomposition."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from projheat.errors import NonIntegerDimension
from projheat.spectrum import (
    SpectralPoint,
    decompose_multiplicity,
    dimension_gamma_form,
    dimension_poly_form,
    dimension_product_form,
    eigenvalue_beta,
    spherical_harmonic_dims,
)


def test_eigenvalue_beta_examples():
    for n in (1, 2, 3):
        for m in range(5):
            assert eigenvalue_beta(SpectralPoint(n, 0, m)) == -4 * m * (m + n)
    assert eigenvalue_beta(SpectralPoint(2, 2, 1)) == -28
    # beta_m = Lambda_{n,nu}(lambda) = n^2 - lambda^2 + 4 nu^2 at lambda = 2(m+nu)+n
    pt = SpectralPoint(3, 3, 4)
    lam = 2 * (pt.m + pt.nu) + pt.n
    assert eigenvalue_beta(pt) == pt.n**2 - lam**2 + 4 * pt.nu**2


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=25))
def test_eigenvalue_completion_of_square(n, two_nu, m):
    pt = SpectralPoint(n, two_nu, m)
    assert eigenvalue_beta(pt) / 4 + pt.r**2 == Fraction(n * n, 4) + pt.nu**2


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=25))
def test_eigenvalue_strictly_decreasing_in_m(n, two_nu, m):
    a = eigenvalue_beta(SpectralPoint(n, two_nu, m))
    b = eigenvalue_beta(SpectralPoint(n, two_nu, m + 1))
    assert b < a


def test_dimension_examples():
    # n=1: 2m + 2nu + 1
    for two_nu in range(6):
        for m in range(8):
            assert dimension_gamma_form(SpectralPoint(1, two_nu, m)) == 2 * m + two_nu + 1
    assert dimension_gamma_form(SpectralPoint(2, 1, 0)) == 3
    assert dimension_gamma_form(SpectralPoint(2, 0, 1)) == 8
    assert dimension_product_form(SpectralPoint(3, 0, 0)) == 1


def test_dimension_via_spherical_harmonics_oracle():
    # dim A_m^nu = sum_{p<=m} sum_{q<=m+2nu} d(n,p,q): the eigenspace basis
    # is indexed by (p, q, j), an independent counting of the same space
    for n in (1, 2, 3):
        for two_nu in (0, 1, 2, 4):
            for m in range(6):
                count = sum(
                    spherical_harmonic_dims(n, p, q)[1]
                    for p in range(m + 1) for q in range(m + two_nu + 1)
                )
                assert dimension_gamma_form(SpectralPoint(n, two_nu, m)) == count


def test_dimension_triple_agreement_grid():
    for n in range(1, 5):
        for two_nu in range(5):
            for m in range(12):
                pt = SpectralPoint(n, two_nu, m)
                g = dimension_gamma_form(pt)
                assert g == dimension_product_form(pt) == dimension_poly_form(pt)
                assert g > 0


def _fraction_gamma_form(pt: SpectralPoint) -> Fraction:
    """The Gamma quotient as one Fraction, the form the integer division replaced."""
    n, tn, m = pt.n, pt.two_nu, pt.m
    return Fraction((2 * m + n + tn) * factorial(m + n - 1) * factorial(m + n + tn - 1),
                    n * factorial(n - 1) ** 2 * factorial(m) * factorial(m + tn))


def _fraction_poly_form(pt: SpectralPoint) -> Fraction:
    """(2/(n!(n-1)!)) sum c_p r^{2p+1} in Fractions, the form the integer Horner replaced."""
    coeffs = decompose_multiplicity(pt.n, pt.nu).coeffs
    acc = sum((c * pt.r ** (2 * p + 1) for p, c in enumerate(coeffs)), Fraction(0))
    return 2 * acc / (factorial(pt.n) * factorial(pt.n - 1))


@pytest.mark.parametrize("n", range(1, 11))
def test_integer_dimension_forms_equal_their_fraction_definitions(n):
    # a wider grid than verify's dims suite (n <= 6, 2nu <= 8, m <= 30)
    for two_nu in range(13):
        for m in range(61):
            pt = SpectralPoint(n, two_nu, m)
            assert dimension_gamma_form(pt) == _fraction_gamma_form(pt)
            assert dimension_poly_form(pt) == _fraction_poly_form(pt)


@pytest.mark.parametrize("n,two_nu,m", [(2, 0, -1), (2, 0, -2), (3, 1, -3), (4, 2, -4), (5, 0, -3)])
def test_poly_form_names_a_bad_value_as_the_fraction_did(n, two_nu, m):
    pt = SpectralPoint(n, two_nu, 0)
    object.__setattr__(pt, "m", m)  # bypass validation on purpose
    with pytest.raises(NonIntegerDimension) as caught:
        dimension_poly_form(pt)
    assert str(caught.value) == (f"dimension {_fraction_poly_form(pt)} at {pt} "
                                 "is not a positive integer")


@pytest.mark.parametrize("label", ["n", "two_nu", "m"])
def test_numpy_labels_are_stored_as_python_ints(label):
    # in int64 the product form's numerator wraps at n = 8, 2nu = 8, m = 60
    labels = {"n": 8, "two_nu": 8, "m": 60}
    pt = SpectralPoint(**{**labels, label: np.int64(labels[label])})
    assert type(getattr(pt, label)) is int
    assert pt == SpectralPoint(**labels)
    for form in (dimension_gamma_form, dimension_product_form, dimension_poly_form):
        assert form(pt) == 29343763278035949600


def test_non_integer_dimension_guard():
    pt = SpectralPoint(2, 0, 0)
    object.__setattr__(pt, "two_nu", Fraction(1, 3))  # bypass validation on purpose
    with pytest.raises((NonIntegerDimension, TypeError)):
        dimension_product_form(pt)


def test_spectral_point_validation():
    with pytest.raises(ValueError):
        SpectralPoint(0, 0, 0)
    with pytest.raises(ValueError):
        SpectralPoint(1, -1, 0)
    with pytest.raises(ValueError):
        SpectralPoint(1, 0, -2)


def test_decompose_examples():
    assert decompose_multiplicity(1, Fraction(5, 2)).coeffs == (Fraction(1),)
    for nu in (Fraction(0), Fraction(1, 2), Fraction(3)):
        assert decompose_multiplicity(2, nu).coeffs == (-(nu**2), Fraction(1))
        got = decompose_multiplicity(3, nu).coeffs
        expected = ((nu**2 - Fraction(1, 4)) ** 2, -(2 * nu**2 + Fraction(1, 2)), Fraction(1))
        assert got == expected
    assert decompose_multiplicity(4, 0).coeffs == (Fraction(0), Fraction(1), Fraction(-2), Fraction(1))
    assert decompose_multiplicity(4, 1).coeffs == (Fraction(0), Fraction(4), Fraction(-5), Fraction(1))


def test_decompose_parity_and_leading():
    for n in range(1, 7):
        for two_nu in range(5):
            poly = decompose_multiplicity(n, Fraction(two_nu, 2))
            assert poly.parity == ("odd" if n % 2 else "even")
            assert len(poly.coeffs) == n
            assert poly.coeffs[-1] == 1


def _fraction_mul_linear(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    """Multiply a Fraction coefficient list (ascending powers of x) by (x - root)."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, ci in enumerate(coeffs):
        out[i + 1] += ci
        out[i] -= ci * root
    return out


def test_integer_row_equals_the_fraction_expansion_and_the_product_form():
    # the reference: prod_j (r - n/2 - nu + j)(r - n/2 + nu + j) expanded in Fractions
    for n in range(1, 17):
        for two_nu in range(10):
            nu, full = Fraction(two_nu, 2), [Fraction(1)]
            for j in range(1, n):
                full = _fraction_mul_linear(full, Fraction(n, 2) + nu - j)
                full = _fraction_mul_linear(full, Fraction(n, 2) - nu - j)
            assert not any(full[1::2])
            assert decompose_multiplicity(n, nu).coeffs == tuple(full[::2])
    # past the dims suite's n <= 6, the poly form against the independent product form
    for n in (20, 40):
        for two_nu in range(6):
            for m in range(11):
                pt = SpectralPoint(n, two_nu, m)
                assert dimension_poly_form(pt) == dimension_product_form(pt)


@pytest.mark.parametrize("n", [3, 5])
def test_root_vanishing_odd(n):
    for two_nu in range(5):
        nu = Fraction(two_nu, 2)
        coeffs = decompose_multiplicity(n, nu).coeffs
        mu = nu + Fraction(1, 2)
        while mu <= nu + Fraction(n, 2) - 1:
            assert sum(c * mu ** (2 * p) for p, c in enumerate(coeffs)) == 0
            mu += 1


@pytest.mark.parametrize("n", [2, 4, 6])
def test_root_vanishing_even(n):
    for nu in (0, 1, 2, 3):
        coeffs = decompose_multiplicity(n, nu).coeffs
        for k in range(n // 2):
            mu = nu + k
            assert sum(c * mu ** (2 * p) for p, c in enumerate(coeffs)) == 0


def test_decompose_rejects_bad_nu():
    with pytest.raises(ValueError):
        decompose_multiplicity(3, Fraction(1, 3))
    with pytest.raises(ValueError):
        decompose_multiplicity(3, -1)


@pytest.mark.parametrize("nu", [np.float32(0.5), np.float64(1.5), np.int64(2), Fraction(3, 2)],
                         ids=lambda x: type(x).__name__)
def test_decompose_reads_a_numpy_or_fraction_nu_as_its_value(nu):
    value = nu.item() if isinstance(nu, np.generic) else nu
    assert decompose_multiplicity(3, nu) == decompose_multiplicity(3, value)


@pytest.mark.parametrize("nu", [float("inf"), float("-inf"), float("nan"), np.float32("inf"),
                                np.float64("nan"), 1j, "1/2", None],
                         ids=["inf", "-inf", "nan", "float32-inf", "float64-nan", "complex", "str",
                              "None"])
def test_decompose_rejects_a_non_finite_or_non_real_nu_naming_it(nu):
    with pytest.raises(ValueError, match="^nu must be a finite real number"):
        decompose_multiplicity(3, nu)


def test_spherical_harmonic_dims_examples():
    assert spherical_harmonic_dims(1, 3, 0)[1] == 1
    assert spherical_harmonic_dims(1, 2, 3)[1] == 0
    assert spherical_harmonic_dims(2, 1, 1) == (4, 3)
    # d(n,p,0) = delta(n,p,0), d(n,0,q) = delta(n,0,q)
    for p in range(4):
        delta, d = spherical_harmonic_dims(3, p, 0)
        assert delta == d
