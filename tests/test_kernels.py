"""Fubini-Study geometry, reproducing kernels, monopole harmonics."""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import product
from math import factorial, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projheat import heat
from projheat.errors import Binary64Overflow, DimensionMismatch, IndexOutOfRange, binary64_range
from projheat.exactnum import pochhammer
from projheat.heat import heat_kernel_series
from projheat.kernels import (
    double_angle,
    fs_distance,
    kernel_diagonal_volume_check,
    monopole_basis,
    monopole_norm_sq,
    point_pair,
    reproducing_kernel,
    zaremba_sum_n1,
)
from projheat.orthopoly import jacobi
from projheat.quadrature import plane_mu1_rule
from projheat.spectrum import SpectralPoint, dimension_gamma_form, dimension_product_form


def test_fs_distance_examples():
    z = (0.3 + 0.2j, -0.1j)
    assert fs_distance(z, z) == pytest.approx(0.0, abs=1e-12)
    # origin vs unit vector: cos^2 d = 1/2
    assert fs_distance((0j,), (1.0 + 0j,)) == pytest.approx(pi / 4)
    # 1 + <z,w> = 0: antipodal-type pair at distance pi/2
    assert fs_distance((1.0 + 0j,), (-1.0 + 0j,)) == pytest.approx(pi / 2)


def test_fs_distance_symmetry_and_consistency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = tuple(complex(a, b) for a, b in rng.normal(0, 1, (2, 2)))
        w = tuple(complex(a, b) for a, b in rng.normal(0, 1, (2, 2)))
        assert fs_distance(z, w) == pytest.approx(fs_distance(w, z))
        c2, q = point_pair(2, z, w)
        assert double_angle(c2) == pytest.approx(np.cos(2 * fs_distance(z, w)), abs=1e-12)
        assert abs(q) == pytest.approx(np.cos(fs_distance(z, w)), abs=1e-12)


def test_fs_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fs_distance((0j,), (0j, 0j))


def test_kernel_diagonal_closed_form():
    rng = np.random.default_rng(7)
    for n, two_nu, m in [(1, 0, 0), (1, 3, 2), (2, 1, 1), (3, 2, 2)]:
        z = tuple(complex(a, b) for a, b in rng.normal(0, 0.7, (n, 2)))
        k = reproducing_kernel(n, two_nu, m, z, z)
        expected = ((2 * m + two_nu + n) * float(pochhammer(m + two_nu + 1, n - 1))
                    * float(pochhammer(n, m)) / (pi**n * factorial(m)))
        assert k.value.imag == pytest.approx(0.0, abs=1e-12)
        assert k.value.real == pytest.approx(expected, rel=1e-12)
        assert k.terms_used == 0 and k.error_bound == 0.0


def test_kernel_nu0_koornwinder_form():
    # K_{0,m} = pi^{-n} (2m+n) ((m+n-1)!/m!) P_m^{(n-1,0)}(cos 2 d_FS)
    rng = np.random.default_rng(8)
    for n, m in [(1, 2), (2, 3), (3, 1)]:
        z = tuple(complex(a, b) for a, b in rng.normal(0, 0.6, (n, 2)))
        w = tuple(complex(a, b) for a, b in rng.normal(0, 0.6, (n, 2)))
        k = reproducing_kernel(n, 0, m, z, w)
        expected = ((2 * m + n) * factorial(m + n - 1) / (pi**n * factorial(m))
                    * jacobi(m, n - 1, 0, double_angle(point_pair(n, z, w)[0])))
        assert k.value == pytest.approx(expected, rel=1e-12)


def test_kernel_hermitian_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(10):
        z = tuple(complex(a, b) for a, b in rng.normal(0, 0.8, (2, 2)))
        w = tuple(complex(a, b) for a, b in rng.normal(0, 0.8, (2, 2)))
        k_zw = reproducing_kernel(2, 3, 2, z, w).value
        k_wz = reproducing_kernel(2, 3, 2, w, z).value
        assert k_zw == pytest.approx(np.conjugate(k_wz), rel=1e-12)


def test_monopole_basis_values_and_range():
    for two_nu in range(4):
        assert monopole_basis(two_nu, 0, 0, 0j) == pytest.approx(sqrt(two_nu + 1))
    with pytest.raises(IndexOutOfRange):
        monopole_basis(2, 0, -1, 0.3 + 0j)
    with pytest.raises(IndexOutOfRange):
        monopole_basis(2, 1, 4, 0.3 + 0j)
    # vanishing at the origin for k != 0
    assert monopole_basis(2, 1, -1, 0j) == 0
    assert monopole_basis(2, 1, 2, 0j) == 0


def test_monopole_basis_checks_its_labels_on_every_call():
    # the per-(2nu, m, k) constants are cached; a rejected label never is
    monopole_basis(2, 1, 0, 0.3 + 0j)
    for _ in range(2):
        with pytest.raises(IndexOutOfRange):
            monopole_basis(2, 1, 4, 0.3 + 0j)
        with pytest.raises(ValueError):
            monopole_basis(-1, 0, 0, 0.3 + 0j)


@pytest.mark.parametrize("itype", [np.int8, np.int16, np.int64])
def test_monopole_basis_computes_numpy_labels_in_python_ints(itype):
    # in int8 the norm's factorials overflow; each label type gets its own cache entry
    z = np.array([0.3 + 0.1j, 0j, -1.1 + 0.5j])
    for labels in ((20, 30, 3), (2, 1, -1), (3, 2, 4)):
        got = monopole_basis(*map(itype, labels), z)
        assert got.tobytes() == monopole_basis(*labels, z).tobytes()
        for zi in (complex(z[0]), 0j):
            got = monopole_basis(*map(itype, labels), zi)
            assert type(got) is complex and repr(got) == repr(monopole_basis(*labels, zi))


@pytest.mark.parametrize("two_nu,m,k", [(0, 0, 0), (2, 1, -1), (1, 2, -2), (3, 2, 4), (2, 2, 1)])
def test_monopole_basis_ndarray_matches_scalars(two_nu, m, k):
    z = np.array([0j, 0.3 + 0.2j, -1.1 + 0.5j, 2.0, -0.4j])
    values = monopole_basis(two_nu, m, k, z)
    assert values.shape == z.shape and values.dtype == complex
    for zi, vi in zip(z, values):
        assert vi == pytest.approx(monopole_basis(two_nu, m, k, complex(zi)), rel=1e-13, abs=1e-15)


def test_monopole_norms_smoke():
    for two_nu, m, k in [(0, 1, 0), (1, 0, 1), (2, 1, -1), (3, 2, 4)]:
        assert monopole_norm_sq(two_nu, m, k) == pytest.approx(1.0, abs=1e-10)


def test_zaremba_calibration_at_origin():
    for two_nu in range(5):
        s = zaremba_sum_n1(two_nu, 0, 0j, 0j)
        assert s == pytest.approx((two_nu + 1) / pi, rel=1e-12)
        k = reproducing_kernel(1, two_nu, 0, 0j, 0j).value
        assert s == pytest.approx(k, rel=1e-12)


def test_zaremba_diagonal_real_positive():
    rng = np.random.default_rng(4)
    for _ in range(8):
        z = complex(*rng.normal(0, 0.9, 2))
        s = zaremba_sum_n1(3, 2, z, z)
        assert abs(s.imag) < 1e-14 * (1 + abs(s))
        assert s.real > 0


def test_zaremba_matches_closed_form_smoke():
    rng = np.random.default_rng(5)
    for two_nu in (1, 2):
        for m in (1, 3):
            for _ in range(5):
                z = complex(*rng.normal(0, 0.8, 2))
                w = complex(*rng.normal(0, 0.8, 2))
                s = zaremba_sum_n1(two_nu, m, z, w)
                k = reproducing_kernel(1, two_nu, m, z, w).value
                assert abs(s - k) <= 1e-10 * (1 + abs(k))


def test_kernel_diagonal_volume_examples():
    assert kernel_diagonal_volume_check(1, 0, 0) == 1
    assert kernel_diagonal_volume_check(2, 1, 0) == 3
    assert kernel_diagonal_volume_check(3, 2, 2) == dimension_product_form(SpectralPoint(3, 2, 2))
    for n in range(1, 5):
        for two_nu in range(4):
            for m in range(8):
                assert (kernel_diagonal_volume_check(n, two_nu, m)
                        == dimension_gamma_form(SpectralPoint(n, two_nu, m)))
    assert isinstance(kernel_diagonal_volume_check(2, 1, 1), Fraction)


def test_kernel_diagonal_volume_reads_numpy_labels_as_python_ints():
    # int64 labels once ran the products in int64, which wrapped with only a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = kernel_diagonal_volume_check(np.int64(8), np.int64(8), 40)
    assert type(value) is Fraction
    assert value == kernel_diagonal_volume_check(8, 8, 40) == 153149145766917300


def _monopole_by_jacobi(two_nu: int, m: int, k: int, z):
    # Phi_k through jacobi's own dispatch, away from z = 0
    norm = sqrt((two_nu + 2 * m + 1) * factorial(two_nu + m) * factorial(m)
                / (factorial(m + k) * factorial(two_nu + m - k)))
    zz = (z * z.conjugate()).real
    s = (1.0 - zz) / (1.0 + zz)
    return norm * (1.0 + zz) ** (-two_nu / 2.0) * z**k * jacobi(m, k, two_nu - k, s)


@pytest.mark.parametrize("two_nu,m", product(range(5), range(4)))
def test_monopole_basis_is_its_jacobi_formula_bit_for_bit(two_nu, m):
    # the cached Jacobi plan changes no bit, for scalars and for ndarrays
    z = np.array([0.3 + 0.2j, -1.1 + 0.5j, 2.0, -0.4j, 1e-3 - 2e-3j])
    for k in range(-m, two_nu + m + 1):
        assert (monopole_basis(two_nu, m, k, z).tobytes()
                == _monopole_by_jacobi(two_nu, m, k, z).tobytes())
        for zi in z.tolist():
            got, expected = monopole_basis(two_nu, m, k, zi), _monopole_by_jacobi(two_nu, m, k, zi)
            assert type(got) is type(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def _kernel_on_grid(two_nu: int, m: int, z: complex, us: np.ndarray) -> np.ndarray:
    """Vectorized n=1 closed-form kernel K(z, u) over a grid of u."""
    zz = abs(z) ** 2
    uu = np.abs(us) ** 2
    num = 1.0 + z * np.conjugate(us)
    q = num / np.sqrt((1.0 + zz) * (1.0 + uu))
    x = np.clip(2.0 * np.abs(num) ** 2 / ((1.0 + zz) * (1.0 + uu)) - 1.0, -1.0, 1.0)
    pref = (2 * m + two_nu + 1) / pi
    return pref * q**two_nu * jacobi(m, 0, two_nu, x)


def test_kernel_grid_helper_matches_scalar():
    rng = np.random.default_rng(12)
    z = complex(*rng.normal(0, 0.5, 2))
    us = np.array([complex(*rng.normal(0, 0.8, 2)) for _ in range(5)])
    grid = _kernel_on_grid(2, 1, z, us)
    for i, u in enumerate(us):
        assert grid[i] == pytest.approx(reproducing_kernel(1, 2, 1, z, u).value, rel=1e-12)


@pytest.mark.parametrize("two_nu", [0, 1, 2])
def test_reproducing_projection_property(two_nu):
    # int K_{nu,m}(z,u) K_{nu,m'}(u,w) dmu_1(u) = delta_{mm'} K_{nu,m}(z,w)
    us, wgt = plane_mu1_rule(200, 200)
    rng = np.random.default_rng(100 + two_nu)
    z = complex(*rng.normal(0, 0.5, 2))
    w = complex(*rng.normal(0, 0.5, 2))
    for m in range(3):
        for mp_ in range(3):
            left = _kernel_on_grid(two_nu, m, z, us)
            # K(u, w) = conj(K(w, u))
            right = np.conjugate(_kernel_on_grid(two_nu, mp_, w, us))
            integral = np.sum(left * right * wgt)
            target = reproducing_kernel(1, two_nu, m, z, w).value if m == mp_ else 0.0
            assert abs(integral - target) <= 1e-6 * (1 + abs(target))


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(0, 8), st.integers(0, 30), st.booleans())
def test_kernel_diagonal_volume_equals_its_fraction_definition(n, two_nu, m, numpy_labels):
    # (2m+2nu+n) (m+2nu+1)_{n-1} (n)_m / (n! m!), one Fraction factor at a time
    expected = Fraction(2 * m + two_nu + n)
    for j in range(n - 1):
        expected *= Fraction(m + two_nu + 1 + j)
    for j in range(m):
        expected *= Fraction(n + j)
    expected /= factorial(n) * factorial(m)
    labels = map(np.int64, (n, two_nu, m)) if numpy_labels else (n, two_nu, m)
    got = kernel_diagonal_volume_check(*labels)
    assert type(got) is Fraction and got == expected


# z == w points where point_pair's c2 rounds to 1 + 2^-52, so 2 c2 - 1 exceeds 1
# before the clip: the first hit for each n of a seeded search over points with
# two-decimal coordinates (np.random.default_rng(23), uniform in [-0.9, 0.9])
CLIPPED = {
    1: (-0.09 - 0.66j,),
    2: (0.83 + 0.19j, 0.6 + 0.81j),
    3: (0.74 + 0.75j, 0.32 - 0.71j, -0.14 - 0.07j),
}


def _clip_before_the_scalar_clip(c2):
    """double_angle as it was: np.clip of a numpy scalar."""
    return np.clip(2.0 * c2 - 1.0, -1.0, 1.0)


def _kernel_before_the_cached_prefactor(n, two_nu, m, z, w) -> complex:
    """reproducing_kernel's expressions before its prefactor was cached."""
    SpectralPoint(n, two_nu, m)
    c2, q = point_pair(n, z, w)
    gamma_ratio = pochhammer(m + two_nu + 1, n - 1)
    with binary64_range("the kernel prefactor"):
        pref = (2 * m + two_nu + n) * float(gamma_ratio) / pi**n
    return complex(pref * q**two_nu * jacobi(m, n - 1, two_nu, _clip_before_the_scalar_clip(c2)))


def _bits(value) -> tuple:
    """The bits of a complex or float, -0.0 and 0.0 told apart."""
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def _kernel_pairs():
    """(n, z, w): the clipped diagonals, the origin, one point against the origin,
    and seeded random pairs."""
    rng = np.random.default_rng(41)
    for n, z in CLIPPED.items():
        yield n, z, z
        yield n, (0j,) * n, (0j,) * n
        yield n, z, (0j,) * n
        for _ in range(3):
            z, w = (tuple(complex(a, b) for a, b in rng.normal(0, 0.7, (n, 2))) for _ in "zw")
            yield n, z, w


def test_clipped_points_exceed_one_before_the_clip():
    for n, z in CLIPPED.items():
        c2, _ = point_pair(n, z, z)
        assert 2.0 * c2 - 1.0 > 1.0
        assert double_angle(c2) == 1.0 and type(double_angle(c2)) is float


@pytest.mark.parametrize("label", [int, np.int64, np.int32], ids=["int", "int64", "int32"])
def test_reproducing_kernel_equals_its_expressions_bit_for_bit(label):
    for n, z, w in _kernel_pairs():
        for two_nu, m in product(range(4), range(5)):
            got = reproducing_kernel(label(n), label(two_nu), label(m), z, w)
            expected = _kernel_before_the_cached_prefactor(n, two_nu, m, z, w)
            assert type(got.value) is complex and _bits(got.value) == _bits(expected)
            assert got.terms_used == 0 and got.error_bound == 0.0


def _series_bits(label) -> list:
    """The bits of heat_kernel_series' value and error_bound, and terms_used, over
    _kernel_pairs at 2nu in {0, 3} and t in {0.05, 0.5}, labels passed as label."""
    out = []
    for (n, z, w), two_nu, t in product(_kernel_pairs(), (0, 3), (0.05, 0.5)):
        k = heat_kernel_series(label(n), label(two_nu), t, z, w)
        out.append((_bits(k.value), _bits(k.error_bound), k.terms_used))
    return out


@pytest.mark.parametrize("label", [int, np.int64], ids=["int", "int64"])
def test_heat_series_equals_the_numpy_clip_bit_for_bit(monkeypatch, label):
    got = _series_bits(label)
    monkeypatch.setattr(heat, "double_angle", _clip_before_the_scalar_clip)
    assert got == _series_bits(int)


def test_kernel_errors_keep_their_order():
    # a bad label, then the points' dimension, then the prefactor's binary64 range;
    # (n, 2nu, m) = (200, 0, 0) has the prefactor 200 * 199! / pi^200, beyond binary64
    short, full = (0j,), (0j,) * 200
    with pytest.raises(ValueError):
        reproducing_kernel(200, -1, 0, short, full)
    with pytest.raises(ValueError):
        reproducing_kernel(200, 0, -1, full, full)
    for _ in range(2):  # the cached prefactor never caches the overflow
        with pytest.raises(DimensionMismatch):
            reproducing_kernel(200, 0, 0, short, full)
        with pytest.raises(Binary64Overflow, match="kernel prefactor"):
            reproducing_kernel(200, 0, 0, full, full)
