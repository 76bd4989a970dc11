"""Heat kernels (series and integral forms), theta sums, spectral trace."""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from fractions import Fraction
from itertools import count, product
from unittest import mock
from math import comb, exp, factorial, pi

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projheat import heat, theta
from projheat.errors import (
    AntipodalDegenerate,
    Binary64Overflow,
    DimensionMismatch,
    NonPositiveTime,
    TruncationFailed,
)
from projheat.heat import (
    heat_kernel_integral,
    heat_kernel_integral_hi,
    heat_kernel_series,
    terms_needed,
    theta_deriv,
    trace_direct,
)
from projheat.kernels import fs_distance
from projheat.quadrature import gauss_legendre, midpoint_rule, plane_mu1_rule
from projheat.spectrum import (
    SpectralPoint,
    _product_dimension,
    dimension_gamma_form,
    dimension_product_form,
    eigenvalue_beta,
)
from projheat.theta import KERNEL_EPS, _gaussian
from projheat.verify import _THETA2, _THETA3, _THETA3_PRINTED, _theta_expansion


def test_time_validation():
    with pytest.raises(NonPositiveTime):
        theta_deriv(2, 0, 0.0)
    with pytest.raises(NonPositiveTime):
        theta_deriv(3, 1, -0.5)
    with pytest.raises(NonPositiveTime):
        heat_kernel_series(1, 0, 0.0, 0j, 0j)
    with pytest.raises(NonPositiveTime):
        heat_kernel_integral(1, 0, -1.0, 0j, 0.1 + 0j)
    with pytest.raises(NonPositiveTime):
        heat_kernel_integral_hi(1, -1.0, 0j, 0.1 + 0j)
    with pytest.raises(NonPositiveTime):
        trace_direct(1, 0, 0.0)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("call", [
    lambda eps: theta_deriv(2, 1, 0.5, eps=eps),
    lambda eps: heat_kernel_series(1, 1, 0.5, (0.3 + 0.2j,), (0.1 - 0.4j,), eps=eps),
    lambda eps: trace_direct(1, 0, 0.1, eps=eps),
], ids=["theta_deriv", "heat_kernel_series", "trace_direct"])
def test_eps_must_be_positive(call, eps):
    with pytest.raises(ValueError, match="eps must be > 0"):
        call(eps)


def test_terms_needed_geometric_cut(monkeypatch):
    # ratio 1/2: tail 2^-M / (1 - 1/2) < 1e-6 first at M = 21; the bounds
    # below the cut come back, and each bound is evaluated once, in order
    seen = []

    def bound(m):
        seen.append(m)
        return 0.5**m

    assert terms_needed(bound, 1e-6) == ([0.5**m for m in range(21)], 2.0 * 0.5**21)
    assert seen == list(range(len(seen)))
    monkeypatch.setattr("projheat.theta._MAX_TERMS", 50)
    with pytest.raises(TruncationFailed):
        terms_needed(lambda m: 1.0, 1e-3)


def list_terms_needed(bound, eps):
    """terms_needed's cut as one loop over a list, verbatim, with the bounds read
    from theta at call time: the oracle of the streamed core."""
    _MIN_TERMS, _MAX_TERMS = theta._MIN_TERMS, theta._MAX_TERMS
    if not eps > 0:
        raise ValueError("eps must be > 0")
    values = [bound(m) for m in range(_MIN_TERMS + 2)]
    for terms in range(_MIN_TERMS, _MAX_TERMS + 2):
        values.append(bound(terms + 2))
        b1, b2, b3 = values[terms:]
        if b1 == 0.0:
            return values[:terms], 0.0
        r1, r2 = b2 / b1, (b3 / b2 if b2 > 0 else 0.0)
        if r1 < 0.9 and r2 <= r1 * (1 + 1e-12):
            tail = b1 / (1.0 - r1)
            if tail < eps:
                return values[:terms], tail
    raise TruncationFailed(f"series tail bound not below {eps:g} within {_MAX_TERMS} terms")


_poly_gauss = st.builds(  # (m + a)^k e^{-s (m + b)^2}: log-concave, ratios fall to 0
    lambda a, k, s, b: lambda m: (m + a) ** k * exp(-s * (m + b) ** 2),
    st.floats(0.5, 20), st.integers(0, 12), st.floats(1e-4, 50), st.floats(-30, 30))
_geometric = st.builds(  # c r^m, the ratio r from the start
    lambda c, r: lambda m: c * r**m, st.floats(1e-3, 1e3), st.floats(0.01, 0.99))
_rising = st.builds(  # c r^m (1+d)^{m^2/2}: each ratio (1+d) times the last, d near 1e-12
    lambda c, r, d: lambda m: c * r**m * (1 + d) ** (m * m / 2),
    st.floats(1e-3, 1e3), st.floats(0.01, 0.89), st.floats(0, 1e-11))
_zero_from = st.builds(  # an exact 0.0 from index z on, before or after _MIN_TERMS
    lambda bound, z: lambda m: bound(m) if m < z else 0.0,
    st.one_of(_poly_gauss, _geometric), st.integers(0, 40))
_zero_at = st.builds(  # one exact 0.0 at index z, positive bounds after it
    lambda bound, z: lambda m: bound(m) if m != z else 0.0,
    st.one_of(_poly_gauss, _geometric), st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_poly_gauss, _geometric, _rising, _zero_from, _zero_at), st.floats(1e-300, 1.0),
       st.one_of(st.none(), st.integers(0, 300)))
def test_streamed_cut_equals_the_list_loop(bound, eps, max_terms):
    # the same (values, tail) or the same error, with the same bounds evaluated, in order
    outcomes = []
    for cut in (list_terms_needed, lambda f, e: theta._truncate(map(f, count()), e)):
        seen = []

        def recorded(m, seen=seen):
            seen.append(m)
            return bound(m)

        limit = theta._MAX_TERMS if max_terms is None else max_terms
        with mock.patch.object(theta, "_MAX_TERMS", limit):
            try:
                result = cut(recorded, eps)
            except TruncationFailed as exc:
                result = str(exc)
        outcomes.append((result, seen))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == list(range(len(outcomes[0][1])))


@pytest.mark.parametrize("itype", [np.int8, np.int16, np.int64])
def test_theta_deriv_reads_a_numpy_order_as_a_python_int(itype):
    # 2 p + 1 = 141 wraps in int8
    for which in (2, 3):
        assert theta_deriv(which, itype(70), 0.1) == theta_deriv(which, 70, 0.1)
    with pytest.raises(ValueError, match="^p must be an integer"):
        theta_deriv(2, 1.5, 0.1)


def test_theta_large_t_leading_terms():
    t = 8.0
    assert theta_deriv(3, 0, t) - 2 * exp(-t) == pytest.approx(4 * exp(-4 * t), rel=1e-3)
    assert theta_deriv(2, 0, t) == pytest.approx(exp(-t / 4), rel=1e-5)


def test_theta_eps_controls_tail():
    loose = theta_deriv(2, 0, 0.08, eps=1e-6)
    tight = theta_deriv(2, 0, 0.08, eps=1e-14)
    assert abs(loose - tight) < 1e-6


def _theta2_truncated_asym(p: int, t: float, terms: int) -> tuple[float, float]:
    return _theta_expansion(*_THETA2, p, t, terms)


def _theta3_truncated_asym(l: int, t: float, terms: int) -> tuple[float, float]:
    return _theta_expansion(*_THETA3, l, t, terms)


@pytest.mark.parametrize("series,a", [(_THETA2, mp.mpf(1) / 2), (_THETA3, 1)],
                         ids=["theta2", "theta3"])
def test_theta_expansion_coefficients_are_hurwitz_zeta_values(series, a):
    # an oracle that shares no code with exactnum: the t^d coefficient of theta's small-t
    # expansion, coef(d) / (weight(d) d!), has coef(d) / weight(d) = 2 (-1)^d zeta(-2d-1, a)
    coef, weight = series
    with mp.workdps(40):
        for d in range(21):
            expected = 2 * (-1) ** d * mp.zeta(-2 * d - 1, a)
            value = coef(d) / weight(d)
            got = mp.mpf(value.numerator) / value.denominator
            assert abs(got - expected) <= mp.mpf(10) ** -36 * abs(expected), d


def test_printed_theta3_coefficient_is_the_negated_corrected_one():
    assert _THETA3_PRINTED[1] is _THETA3[1]
    assert all(_THETA3_PRINTED[0](d) == -_THETA3[0](d) != 0 for d in range(21))


@pytest.mark.parametrize("p", range(4))
def test_theta2_small_time_asymptotics(p):
    # remainder of the truncated asymptotic series is ~1.05x the first
    # omitted term at t=0.05 (same-sign continuation); 1.5x envelope
    t = 0.05
    exact = theta_deriv(2, p, t, eps=1e-14)
    asym, omitted = _theta2_truncated_asym(p, t, terms=6)
    assert abs(exact - asym) <= 1.5 * omitted


@pytest.mark.parametrize("l", range(4))
def test_theta3_small_time_asymptotics(l):
    t = 0.05
    exact = theta_deriv(3, l, t, eps=1e-14)
    asym, omitted = _theta3_truncated_asym(l, t, terms=6)
    assert abs(exact - asym) <= 1.5 * omitted


def test_theta3_printed_sign_is_wrong():
    # flipping the Bernoulli-series sign (as printed) misses by O(1), not O(t^S)
    t = 0.05
    exact = theta_deriv(3, 0, t, eps=1e-14)
    printed, _ = _theta_expansion(*_THETA3_PRINTED, 0, t, 6)
    assert abs(exact - printed) > 0.3


@pytest.mark.parametrize("which", [2, 3])
def test_theta_deriv_overflow_is_typed(which):
    # at p = 200 a term's power of its lattice point passes binary64 within a few terms
    with pytest.raises(Binary64Overflow, match="theta-derivative term"):
        theta_deriv(which, 200, 1e-3)


def test_big_theta_derivative_chain():
    # (-1/sin u d/du)^{n+2nu} Theta_{n+1,nu}(t, u)
    #   = 2^{n+2nu-1}(n+2nu-1)! sum_m (2m+2nu+n) C_{2m}^{n+2nu}(cos u) e^{-4t r^2}
    from projheat.orthopoly import gegenbauer_values

    t, u0 = 0.6, 0.8
    for n, two_nu in [(1, 0), (1, 1), (2, 0), (1, 2)]:
        ell = n + two_nu

        def theta_mp(u):
            total = mp.mpf(0)
            for m in range(40):
                total += mp.exp(-4 * t * (m + (two_nu + n) / mp.mpf(2)) ** 2) \
                    * mp.cos((2 * m + two_nu + n) * u)
            return total

        fn = theta_mp
        with mp.workdps(40):
            for _ in range(ell):
                fn = (lambda prev: lambda u: -mp.diff(prev, u) / mp.sin(u))(fn)
            lhs = float(fn(mp.mpf(u0)))
        rhs = 0.0
        for m in range(40):
            rhs += ((2 * m + two_nu + n)
                    * gegenbauer_values(2 * m, ell, math.cos(u0))[2 * m]
                    * exp(-4 * t * (m + (two_nu + n) / 2) ** 2))
        rhs *= 2 ** (ell - 1) * factorial(ell - 1)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_heat_series_large_t_diagonal():
    # nu=0, z=w: n!/pi^n + O(e^{-4(n+1)t})
    for n in (1, 2, 3):
        z = tuple([0.2 + 0.1j] * n)
        t = 4.0
        val = heat_kernel_series(n, 0, t, z, z).value
        lead = factorial(n) / pi**n
        assert abs(val - lead) < 10 * (n + 2) * factorial(n + 1) * exp(-4 * (n + 1) * t)


def test_heat_series_error_bound_honored():
    z, w = (0.3 + 0.1j,), (0.1 - 0.2j,)
    ks = heat_kernel_series(1, 1, 0.4, z, w, eps=1e-8)
    tight = heat_kernel_series(1, 1, 0.4, z, w, eps=1e-13)
    assert abs(ks.value - tight.value) <= ks.error_bound + 1e-13
    assert ks.error_bound < 1e-8


def _series_on_grid(t: float, z: complex, us: np.ndarray) -> np.ndarray:
    """The n=1, nu=0 series H_0(t, z, u) at each node u."""
    return np.array([heat_kernel_series(1, 0, t, z, u).value for u in us])


def test_heat_series_mass_is_one():
    # int H_0(t, z, w) dmu_1(w) = 1 (constants are the m=0 eigenspace)
    us, wgt = plane_mu1_rule(32, 32)
    for t in (0.5, 1.0):
        vals = _series_on_grid(t, 0.3 + 0.2j, us)
        assert np.sum(vals * wgt).real == pytest.approx(1.0, abs=1e-6)


def test_heat_semigroup_property():
    # int H_0(s,z,u) H_0(t,u,w) dmu_1(u) = H_0(s+t,z,w)
    us, wgt = plane_mu1_rule(32, 32)
    z, w = 0.25 + 0.1j, -0.3 + 0.4j
    s, t = 0.4, 0.7
    left = _series_on_grid(s, z, us)
    right = _series_on_grid(t, w, us)  # H_0 symmetric at nu=0
    integral = np.sum(left * right * wgt)
    target = heat_kernel_series(1, 0, s + t, z, w).value
    assert abs(integral - target) <= 1e-5 * (1 + abs(target))


def test_series_vs_integral_smoke():
    rng = np.random.default_rng(33)
    for n, two_nu, t in [(1, 0, 0.5), (1, 1, 0.3), (2, 2, 1.0)]:
        z = tuple(complex(a, b) for a, b in rng.normal(0, 0.6, (n, 2)))
        w = tuple(complex(a, b) for a, b in rng.normal(0, 0.6, (n, 2)))
        if fs_distance(z, w) >= 1.2:
            continue
        hs = heat_kernel_series(n, two_nu, t, z, w)
        hi = heat_kernel_integral(n, two_nu, t, z, w)
        assert abs(hs.value - hi.value) <= 1e-6 * (1 + abs(hs.value))


def test_integral_coincident_points():
    # z = w means rho = 0: integral over the full [0, pi/2]
    z = (0.4 - 0.3j,)
    for two_nu in (0, 1, 2):
        hs = heat_kernel_series(1, two_nu, 0.5, z, z)
        hi = heat_kernel_integral(1, two_nu, 0.5, z, z)
        assert hi.value == pytest.approx(hs.value, rel=1e-9)
        assert hi.value.imag == pytest.approx(0.0, abs=1e-12)
        assert hi.value.real > 0


def test_integral_antipodal_degenerate():
    with pytest.raises(AntipodalDegenerate):
        heat_kernel_integral(1, 1, 0.5, (1.0 + 0j,), (-1.0 + 0j,))
    with pytest.raises(AntipodalDegenerate):
        heat_kernel_integral_hi(1, 0.5, (1.0 + 0j,), (-1.0 + 0j,))


def test_series_diagonal_real_positive():
    # holds for half-integer nu too: the phase base is real positive at z=w
    rng = np.random.default_rng(55)
    for n, two_nu in [(1, 1), (1, 3), (2, 1), (2, 2)]:
        z = tuple(complex(a, b) for a, b in rng.normal(0, 0.7, (n, 2)))
        val = heat_kernel_series(n, two_nu, 0.6, z, z).value
        assert val.imag == pytest.approx(0.0, abs=1e-14)
        assert val.real > 0


def test_integral_nu0_classical_constant():
    rng = np.random.default_rng(44)
    for n in (1, 2):
        z = tuple(complex(a, b) for a, b in rng.normal(0, 0.5, (n, 2)))
        w = tuple(complex(a, b) for a, b in rng.normal(0, 0.5, (n, 2)))
        hs = heat_kernel_series(n, 0, 0.4, z, w)
        hh = heat_kernel_integral_hi(n, 0.4, z, w)
        assert abs(hs.value - hh.value) <= 1e-6 * (1 + abs(hs.value))


@pytest.mark.parametrize("n", range(1, 11))
def test_classical_and_general_forms_agree_to_rounding_at_nu0(n):
    # the forms share everything but the constant's expression, whose binary64
    # values differ in their last bit at n = 7 and n = 9
    z, w = _rows(0.1 + 0.05j, 0.3, -0.2j, n=n), _rows(0.05 - 0.1j, 0.25, 0.1j, n=n)
    calls = [(0.5, tuple(z[0]), tuple(w[0])), (0.5, z, w), (0.1, z, w)]  # one pair; rows twice
    for t, zs, ws in calls:
        hi = np.atleast_1d(heat_kernel_integral_hi(n, t, zs, ws).value)
        gen = np.atleast_1d(heat_kernel_integral(n, 0, t, zs, ws).value)
        assert np.all(np.abs(hi - gen) <= 4 * 2.0**-53 * np.abs(hi))
        assert np.array_equal(hi, gen) == (n not in (7, 9))


def _recording_rules(monkeypatch) -> list:
    """The orders of the midpoint rules heat builds from here on."""
    seen = []

    def recording(k, a, b):
        seen.append(k)
        return midpoint_rule(k, a, b)

    monkeypatch.setattr(heat, "midpoint_rule", recording)
    return seen


def _g_weights(n: int, two_nu: int, t: float) -> list[float]:
    # G's weights (2m+lam) decay(m), over the terms the series keeps at its default eps
    _, decays, _ = heat._series_weights(n, two_nu, t, KERNEL_EPS)
    return [(2 * m + n + two_nu) * gauss for m, gauss in enumerate(decays)]


def _exact_order(n: int, two_nu: int, t: float) -> int:
    # more than half the integrand's degree 2nu + terms - 1 in sin^2 phi
    terms = len(_g_weights(n, two_nu, t))
    return (two_nu + terms - 1) // 2 + 1


@pytest.mark.parametrize("pairs", [16, 1024, np.int64(1024)], ids=["16", "1024", "int64-1024"])
def test_integral_builds_one_rule_of_the_exact_order(pairs, monkeypatch):
    # one rule of the exact order alone, for one pair or for rows of any number of pairs
    # (a numpy integer count too): a few nodes at t = 0.5, more than 16 at t = 1e-3
    assert _exact_order(1, 1, 0.5) < 16 and _exact_order(1, 0, 0.5) < 16
    assert 16 < _exact_order(1, 1, 1e-3) < 1024 and 16 < _exact_order(1, 0, 1e-3) < 1024
    rng = np.random.default_rng(int(pairs))
    z, w = (0.3 * (rng.uniform(-1, 1, (pairs, 1)) + 1j * rng.uniform(-1, 1, (pairs, 1)))
            for _ in range(2))
    seen = _recording_rules(monkeypatch)
    for t in (0.5, 1e-3):
        for a, b in ((0.3 + 0.2j, 0.1 - 0.4j), (z, w)):
            seen.clear()
            k = heat_kernel_integral(1, 1, t, a, b)
            assert seen == [_exact_order(1, 1, t)] and np.all(k.error_bound > 0)
            seen.clear()
            heat_kernel_integral_hi(1, t, a, b)
            assert seen == [_exact_order(1, 0, t)]


def test_integral_whose_sum_underflows_builds_the_minimum_rule(monkeypatch):
    # at t = 1000 and 2nu = 3 every Gegenbauer weight underflows to 0, but the terms
    # the truncation keeps (8, its minimum) still set the order: (3 + 8 - 1)//2 + 1 = 6
    weights = _g_weights(1, 3, 1000.0)
    assert len(weights) == 8 and not any(weights)
    seen = _recording_rules(monkeypatch)
    k = heat_kernel_integral(1, 3, 1000.0, 0.3 + 0.2j, 0.1 - 0.4j)
    assert seen == [6] and (k.value, k.error_bound) == (0.0, 0.0)


def _rows(*points, n: int) -> np.ndarray:
    return np.array([[p] * n for p in points], dtype=complex)


def _row_batch(n: int):
    # pairs near and far from the diagonal, and the same points with the partners reversed
    points = (0.4 - 0.3j, 0.1, 0.3 + 0.2j)
    partners = (0.4 - 0.3j, 0.12, 0.1 - 0.4j)
    return _rows(*points, *points, n=n), _rows(*partners, *partners[::-1], n=n)


def _heat_form(form: str, n: int, two_nu: int, t: float):
    return {"general": lambda z, w: heat_kernel_integral(n, two_nu, t, z, w),
            "classical": lambda z, w: heat_kernel_integral_hi(n, t, z, w),
            "series": lambda z, w: heat_kernel_series(n, two_nu, t, z, w)}[form]


def _recording_builds(monkeypatch) -> list:
    """What heat builds from here on: each rule's order, and each truncation's arguments."""
    built = []
    for name in ("midpoint_rule", "_series_weights"):
        monkeypatch.setattr(heat, name, lambda *args, name=name, f=getattr(heat, name):
                            built.append((name, *args)) or f(*args))
    return built


# (form, n, 2nu, t): the integral forms at small t, where the rule needs more than 16 nodes
ROW_BATCHES = [("general", 3, 1, 1e-3), ("classical", 2, 0, 7e-4),
               ("series", 1, 1, 0.5), ("series", 2, 0, 1e-3), ("series", 3, 2, 0.05)]


@pytest.mark.parametrize("form,n,two_nu,t", ROW_BATCHES,
                         ids=["-".join(map(str, batch)) for batch in ROW_BATCHES])
def test_rows_equal_one_pair_calls_bit_for_bit(monkeypatch, form, n, two_nu, t):
    # a call on rows builds once what a one-pair call builds: the series its weights, an
    # integral its G (from the series' truncation at the default eps) and its one rule
    heat_form = _heat_form(form, n, two_nu, t)
    z, w = _row_batch(n)
    built = _recording_builds(monkeypatch)
    rows = heat_form(z, w)
    once = list(built)
    if form == "series":
        assert once == [("_series_weights", n, two_nu, t, KERNEL_EPS)]
    else:
        assert once == [("_series_weights", n, two_nu, t, KERNEL_EPS),
                        ("midpoint_rule", _exact_order(n, two_nu, t), 0.0, pi / 2)]
        assert _exact_order(n, two_nu, t) > 16
    assert rows.value.shape == rows.error_bound.shape == (len(z),)
    assert rows.value.dtype == complex and rows.error_bound.dtype == float
    assert isinstance(rows.terms_used, int)
    for k in range(len(z)):
        built.clear()
        one = heat_form(tuple(z[k]), tuple(w[k]))
        assert built == once
        assert np.array([one.value]).tobytes() == rows.value[k:k + 1].tobytes()
        assert np.array([one.error_bound]).tobytes() == rows.error_bound[k:k + 1].tobytes()
        assert one.terms_used == rows.terms_used


@pytest.mark.parametrize("form", ["general", "classical", "series"])
def test_row_results_hash_and_compare_by_identity(form):
    # an array field has no truth value and no hash; results compare as objects instead
    heat_form = _heat_form(form, 2, 0, 0.5)
    z, w = _row_batch(2)
    rows, again, one = heat_form(z, w), heat_form(z, w), heat_form(tuple(z[0]), tuple(w[0]))
    assert rows == rows and rows != again and one != heat_form(tuple(z[0]), tuple(w[0]))
    assert len({rows, again, one}) == 3 and hash(rows) == hash(rows)


def _one_pair_bracket(n, two_nu, t, cos_rho, scale):
    # one pair on its own rule of the exact order
    from projheat.orthopoly import gegenbauer_values

    weights = _g_weights(n, two_nu, t)
    phi, wphi = midpoint_rule(_exact_order(n, two_nu, t), 0.0, pi / 2)
    cvals = gegenbauer_values(2 * (len(weights) - 1), n + two_nu, cos_rho * np.sin(phi))
    g = sum(wm * cm for wm, cm in zip(weights, cvals[0::2]))
    return scale * float(np.sum(wphi * (cos_rho * np.cos(phi)) ** (2 * two_nu) * g))


@pytest.mark.parametrize("n,two_nu,t,pairs", [(1, 1, 0.3, 16), (2, 2, 0.05, 16), (3, 0, 0.5, 128)])
def test_bracket_integral_equals_the_one_pair_loop_bit_for_bit(n, two_nu, t, pairs):
    rng = np.random.default_rng(n * 10 + two_nu)
    cos_rho = rng.uniform(0.3, 1.0, pairs)
    scale = rng.normal(size=pairs) + 1j * rng.normal(size=pairs)
    values = heat._bracket_integral(n, two_nu, _g_weights(n, two_nu, t), cos_rho, scale)
    for k in range(pairs):
        value = _one_pair_bracket(n, two_nu, t, cos_rho[k], scale[k])
        assert values[k:k + 1].tobytes() == np.array([value]).tobytes()


@functools.cache
def _reference_rule() -> tuple[np.ndarray, np.ndarray]:
    # 2048 nodes on [0, pi/2], independent of the midpoint rule: 32 panels of 64-node
    # Gauss-Legendre. numpy's own 2048-node rule errs by ~1.6e-13 relative on cos^10, far
    # above the rounding allowance below; its 64-node rule is accurate to a few ulps
    edges = np.linspace(0.0, pi / 2, 33)
    rules = [gauss_legendre(64, a, b) for a, b in zip(edges[:-1], edges[1:])]
    return np.concatenate([r[0] for r in rules]), np.concatenate([r[1] for r in rules])


def _bracket_parts(n, two_nu, weights, cos_rho, phi, wphi):
    # for each cos rho: the bracket integral, the integral of its terms' absolute sum
    # |f| sum_m |w_m C_2m(x)|, and sum w|x df/dx|, at x = cos rho sin phi
    from projheat.orthopoly import gegenbauer_values

    lam, c = n + two_nu, cos_rho[:, None]
    x = c * np.sin(phi)
    cvals = gegenbauer_values(2 * len(weights) - 2, lam, x)[0::2]
    dvals = gegenbauer_values(max(2 * len(weights) - 3, 0), lam + 1, x)[1::2]
    g = sum(wm * cm for wm, cm in zip(weights, cvals))
    g_terms = sum(np.abs(wm * cm) for wm, cm in zip(weights, cvals))
    dg = sum(2 * lam * wm * dm for wm, dm in zip(weights[1:], dvals))  # C_k' = 2lam C_{k-1}^{lam+1}
    f = (c * np.cos(phi)) ** (2 * two_nu)
    return (np.sum(wphi * f * g, axis=1), np.sum(wphi * f * g_terms, axis=1),
            np.sum(wphi * np.abs(f * x * dg), axis=1))


@pytest.mark.parametrize("t", [1.0, 0.1, 0.01, 1e-3])
@pytest.mark.parametrize("two_nu", [0, 1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_certified_quadrature_rule_is_exact(n, two_nu, t):
    # the quadrature term is 0, so |I_N - I_2048| <= 64 2^-53 (terms + sum w|x df/dx|):
    # rounding alone, in G's terms, which cancel far from the diagonal at small t, and in a
    # few ulps of the argument x = cos rho sin phi, to which G is sensitive near the
    # diagonal (G'/G ~ 1/(2t)). The worst case uses 9.3 of the 64
    cos_rho = np.array([0.9999, 0.5, 0.1])
    weights = _g_weights(n, two_nu, t)
    values = heat._bracket_integral(n, two_nu, weights, cos_rho, 1.0)
    reference, terms, sensitivity = _bracket_parts(n, two_nu, weights, cos_rho,
                                                   *_reference_rule())
    assert np.all(np.abs(values - reference) <= 64 * 2.0**-53 * (terms + sensitivity))


@pytest.mark.parametrize("nodes", [1, 4, 16, 33])
def test_midpoint_rule_integrates_cosines_below_twice_its_order(nodes):
    # sum w cos(2j phi) over [0, pi/2] is the integral, 0, for 0 < j < 2 nodes, and
    # -pi/2 at j = 2 nodes, where every node sits on a trough
    phi, w = midpoint_rule(nodes, 0.0, pi / 2)
    sums = [np.sum(w * np.cos(2 * j * phi)) for j in range(2 * nodes + 1)]
    assert sums[0] == pytest.approx(pi / 2, rel=1e-15)
    assert np.all(np.abs(sums[1:-1]) <= 1e-14) and sums[-1] == pytest.approx(-pi / 2, rel=1e-14)


@pytest.mark.parametrize("two_nu", [0, 1, 2, 5])
@pytest.mark.parametrize("terms", [1, 2, 3, 6, 7])
def test_exact_order_is_the_fewest_nodes_that_integrate_the_bracket(two_nu, terms):
    # with G's top term alone, the midpoint rule of heat's order is exact (to rounding) and
    # one node fewer, which aliases the integrand's top cosine, is not
    from projheat.orthopoly import gegenbauer_values

    n = 1
    lam, degree = n + two_nu, 2 * (terms - 1)
    with mp.workdps(30):
        exact = float(mp.quad(lambda p: mp.cos(p) ** (2 * two_nu)
                              * mp.gegenbauer(degree, lam, mp.sin(p)), [0, mp.pi / 2]))
    order = heat._exact_order(two_nu, terms)
    assert order == (two_nu + terms - 1) // 2 + 1
    errors = []
    for nodes in (order, order - 1):
        phi, w = midpoint_rule(max(nodes, 1), 0.0, pi / 2)
        f = np.cos(phi) ** (2 * two_nu) * gegenbauer_values(degree, lam, np.sin(phi))[-1]
        errors.append(abs(np.sum(w * f) - exact) / np.sum(w * np.abs(f)))
    assert errors[0] <= 1e-12
    assert order == 1 or errors[1] >= 1e-3


def test_exact_order_check_leaves_mpmath_precision_alone():
    # its 30-digit reference quadrature raises mpmath's precision only inside its block
    dps = mp.mp.dps
    test_exact_order_is_the_fewest_nodes_that_integrate_the_bracket(2, 3)
    assert mp.mp.dps == dps


@pytest.mark.parametrize("form", ["general", "classical"])
def test_integral_rows_reject_degenerate_and_misshapen_pairs(form):
    integral = _heat_form(form, 1, 0, 0.5)
    z = np.array([[0.3 + 0.2j], [1.0]])
    with pytest.raises(AntipodalDegenerate):
        integral(z, np.array([[0.1 - 0.4j], [-1.0]]))  # the second row is antipodal
    for bad_w in (np.array([[0.1, 0.2], [0.3, 0.4]]),  # rows of width 2 on P^1
                  np.array([[0.1 - 0.4j]]),  # one row against two
                  (0.1 - 0.4j,)):  # one point against rows
        with pytest.raises(DimensionMismatch):
            integral(z, bad_w)


def test_series_rows_reject_misshapen_pairs():
    z = np.array([[0.3 + 0.2j], [0.5j]])
    for bad_w in (np.array([[0.1 - 0.4j]]), (0.1 - 0.4j,)):
        with pytest.raises(DimensionMismatch):
            heat_kernel_series(1, 1, 0.5, z, bad_w)


@pytest.mark.parametrize("form", ["general", "classical", "series"])
def test_first_failing_check_names_the_error(form):
    # the checks run in one order: the time, the labels, the rows, then each pair in row
    # order with its own check, so of two failing checks the earlier one names the error
    misshapen = (np.array([[0.3], [0.1]]), np.array([[0.2]]))
    with pytest.raises(NonPositiveTime):
        _heat_form(form, 0, 1, -1.0)(0.3, 0.1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        _heat_form(form, 0, 1, 0.5)(*misshapen)
    # row 0 is antipodal and row 1 holds a NaN: the integral forms check row 0's geometry
    # before they read row 1; the series has no antipodal check, so row 1 fails it
    z, w = np.array([[1.0], [math.nan]]), np.array([[-1.0], [0.2]])
    if form == "series":
        with pytest.raises(ValueError, match="non-finite coordinate"):
            _heat_form(form, 1, 1, 0.5)(z, w)
    else:
        with pytest.raises(AntipodalDegenerate):
            _heat_form(form, 1, 1, 0.5)(z, w)


def test_trace_large_t_limit():
    # only m=0 survives and its exponents cancel exactly at n=1, nu=0
    assert trace_direct(1, 0, 40.0) == pytest.approx(1.0, rel=1e-12)


def test_trace_direct_against_inline_sum():
    # n=1, nu=1: sum (2m+3) e^{(1/4+1)t} e^{-(m+3/2)^2 t}
    t = 0.1
    brute = math.fsum((2 * m + 3) * exp((0.25 + 1) * t) * exp(-((m + 1.5) ** 2) * t)
                      for m in range(400))
    assert trace_direct(1, 2, t) == pytest.approx(brute, rel=1e-12)


def test_trace_direct_sums_numpy_labels_in_python_ints():
    # in int64 the dimension's numerator wraps at n = 8, 2nu = 8 by m = 11
    assert trace_direct(np.int64(8), np.int64(8), 0.01) == trace_direct(8, 8, 0.01)


@pytest.mark.parametrize("itype", [np.int8, np.int16, np.int64])
def test_heat_forms_compute_numpy_labels_in_python_ints(itype):
    # in int8 the series weights overflow and the integral's constant and bound go wrong
    t, z, w = 0.001, 0.1 + 0.05j, 0.12
    for form, labels in ((heat_kernel_series, (1, 1)), (heat_kernel_integral, (1, 1)),
                         (heat_kernel_integral_hi, (1,))):
        got, expected = form(*map(itype, labels), t, z, w), form(*labels, t, z, w)
        assert type(got.value) is type(expected.value) is complex
        assert type(got.error_bound) is type(expected.error_bound) is float
        assert (repr(got.value), got.terms_used, repr(got.error_bound)) == \
            (repr(expected.value), expected.terms_used, repr(expected.error_bound))


@pytest.mark.parametrize("n", range(1, 7))
def test_trace_direct_bit_identical_to_gamma_form_sum(n):
    # the same truncation and fsum over terms built from the Gamma-quotient
    # dimensions: every float must agree exactly
    for two_nu in range(9):
        for t in (1.0, 0.1, 0.01, 0.001):
            shift = float(two_nu * two_nu + n * n)

            def term(m):
                dim = dimension_gamma_form(SpectralPoint(n, two_nu, m))
                return dim * exp(t / 4.0 * (shift - (2 * m + two_nu + n) ** 2))

            values, _ = terms_needed(term, 1e-12)
            assert trace_direct(n, two_nu, t) == math.fsum(map(term, range(len(values))))


@pytest.mark.parametrize("n", range(1, 9))
def test_trace_direct_dimensions_equal_the_product_form(n):
    # the forward-difference dimensions are the product form's ints: the
    # same truncation and fsum over product-form terms agree bit for bit
    for two_nu in range(9):
        for t in (1e-5, 3e-5, 1e-4, 1e-3, 0.1):
            decay = _gaussian(n, two_nu, t / 4.0)
            values, _ = terms_needed(lambda m: _product_dimension(n, two_nu, m) * decay(m), 1e-12)
            assert trace_direct(n, two_nu, t) == math.fsum(values)


def test_trace_exponents_match_eigenvalues():
    # e^{(n^2/4+nu^2)t} e^{-r^2 t} = e^{beta_m t / 4} term by term
    t = 0.3
    for n, two_nu in [(2, 1), (3, 2)]:
        brute = math.fsum(
            dimension_product_form(SpectralPoint(n, two_nu, m))
            * exp(float(eigenvalue_beta(SpectralPoint(n, two_nu, m))) * t / 4)
            for m in range(200))
        assert trace_direct(n, two_nu, t) == pytest.approx(brute, rel=1e-12)


def test_normal_convergence_term_bounds():
    # reported error bound interlocks with refinement
    z, w = (0.2 + 0.2j,), (0.5 - 0.1j,)
    k1 = heat_kernel_series(1, 2, 0.3, z, w, eps=1e-6)
    k2 = heat_kernel_series(1, 2, 0.3, z, w, eps=1e-12)
    assert k2.terms_used >= k1.terms_used
    assert abs(k1.value - k2.value) <= k1.error_bound + 1e-12


def _count_bounds(monkeypatch, evaluated: list):
    """Make heat's terms_needed record each m whose bound it evaluates."""
    def counting(bound, eps):
        def recorded(m):
            evaluated.append(m)
            return bound(m)
        return terms_needed(recorded, eps)
    monkeypatch.setattr(heat, "terms_needed", counting)


# (form, n, 2nu, t) of one weight build: the series' weights, or the integral's G
WEIGHT_BUILDS = [("series", 1, 0, 0.5), ("series", 2, 3, 0.1), ("series", 4, 1, 0.02),
                 ("gegenbauer", 1, 0, 0.5), ("gegenbauer", 2, 3, 0.1), ("gegenbauer", 3, 1, 0.02)]


@pytest.mark.parametrize("form,n,two_nu,t", WEIGHT_BUILDS,
                         ids=["-".join(map(str, build)) for build in WEIGHT_BUILDS])
def test_weights_reuse_each_bound_evaluation(monkeypatch, form, n, two_nu, t):
    # one Gamma ratio, one sup and one Gaussian per bound evaluated, in one truncation for
    # both forms; the series' weights are coef(m) * decay(m) and G's (2m+lam) * decay(m),
    # bit for bit, with G taking its Gaussians from the truncation rather than again
    from projheat.exactnum import pochhammer

    evaluated, ratios, sups, gaussians, g_weights = [], [], [], [], []
    _count_bounds(monkeypatch, evaluated)
    ratio, sup, bracket = heat._gamma_ratio, heat.comb, heat._bracket_integral
    monkeypatch.setattr(heat, "_gamma_ratio", lambda n, two_nu, m: (
        ratios.append(m) or ratio(n, two_nu, m)))
    monkeypatch.setattr(heat, "comb", lambda a, m: sups.append(m) or sup(a, m))
    monkeypatch.setattr(heat, "_gaussian", lambda *args: (
        lambda m: gaussians.append(m) or _gaussian(*args)(m)))
    monkeypatch.setattr(heat, "_bracket_integral", lambda n, two_nu, weights, *rest: (
        g_weights.append(weights) or bracket(n, two_nu, weights, *rest)))
    if form == "series":
        weights = heat._series_weights(n, two_nu, t, 1e-10)[0]
        coefficients = [(2 * m + two_nu + n) * float(pochhammer(m + two_nu + 1, n - 1))
                        for m in range(len(weights))]
    else:
        terms = heat_kernel_integral(n, two_nu, t, (0.3 + 0.2j,) * n, (0.1 - 0.4j,) * n).terms_used
        [weights] = g_weights
        coefficients = [2 * m + n + two_nu for m in range(terms)]
    assert ratios == sups == gaussians == evaluated and len(evaluated) > len(weights)
    decay = _gaussian(n, two_nu, t)
    assert weights == [c * decay(m) for m, c in enumerate(coefficients)]


def _scaled_jacobi(m: int, alpha: int, beta: int, k: int, N: int) -> int:
    # N^m P_m^{(alpha,beta)}(2c^2 - 1) at c^2 = k/N, in integers: the Jacobi sum
    # sum_s C(m+alpha, m-s) C(m+beta, s) (c^2-1)^s (c^2)^(m-s)
    return sum(comb(m + alpha, m - s) * comb(m + beta, s) * (k - N) ** s * k ** (m - s)
               for s in range(m + 1))


def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2))  # 1 for k <= 0


def _exact_constant(n: int, two_nu: int) -> Fraction:
    # the integral form's constant 2 Gamma(n+2nu) 4^{2nu} (2nu)!/(4nu)!, pi^{n+1} taken out
    return Fraction(2 * factorial(n + two_nu - 1) * 4**two_nu * factorial(two_nu),
                    factorial(2 * two_nu))


CONSTANT_MUTATIONS = {
    "(4nu)! as (4nu+1)!": lambda n, tn: _exact_constant(n, tn) / (2 * tn + 1),
    "Gamma(n+2nu) as Gamma(n+2nu+1)": lambda n, tn: _exact_constant(n, tn) * (n + tn),
    "4^{2nu} dropped": lambda n, tn: _exact_constant(n, tn) / 4**tn,
}


@functools.cache
def _term_identity_cases() -> tuple:
    """(n, 2nu, I, S) on n <= 5, 2nu <= 7, m <= 12, c^2 in {1/3, 2/7, 9/10, 1}, exact.

    I is the integral form's term m over its constant, times pi^{n+1}:
    int_0^{pi/2} c^{4nu} cos^{4nu} phi C_{2m}^lam(c sin phi) dphi / pi, lam = n + 2nu, from
    C_{2m}^lam(x) = sum_j (-1)^j (lam)_{2m-j} (2x)^{2m-2j} / (j! (2m-2j)!) and Wallis'
    int_0^{pi/2} sin^{2k} cos^{2b} = (pi/2) (2k-1)!! (2b-1)!! / (2k+2b)!!. S is the series'
    term m without its weight, times pi^n: (m+2nu+1)_{n-1} c^{4nu} P_m^{(n-1,2nu)}(2c^2-1).
    """
    cases = []
    for n, two_nu, m, (p, q) in product(range(1, 6), range(8), range(13),
                                        ((1, 3), (2, 7), (9, 10), (1, 1))):
        lam, c2 = n + two_nu, Fraction(p, q)
        integral = sum(Fraction((-1) ** j * math.prod(range(lam, lam + 2 * m - j)) * 4 ** (m - j)
                                * _double_factorial(2 * (m - j) - 1)
                                * _double_factorial(2 * two_nu - 1),
                                factorial(j) * factorial(2 * (m - j))
                                * 2 * _double_factorial(2 * (m - j) + 2 * two_nu))
                       * c2 ** (m - j) for j in range(m + 1))
        series = (math.prod(range(m + two_nu + 1, m + two_nu + n))
                  * Fraction(_scaled_jacobi(m, n - 1, two_nu, p, q), q**m))
        cases.append((n, two_nu, c2**two_nu * integral, c2**two_nu * series))
    return tuple(cases)


def _identity_mismatches(constant) -> int:
    return sum(constant(n, two_nu) * integral != series
               for n, two_nu, integral, series in _term_identity_cases())


def test_integral_term_is_the_series_term_exactly():
    # the two forms are one sum: term m of the integral form is term m of the series, so one
    # truncation serves both
    assert len(_term_identity_cases()) == 2080
    assert _identity_mismatches(_exact_constant) == 0


@pytest.mark.parametrize("mutation", sorted(CONSTANT_MUTATIONS))
def test_term_identity_fails_a_mutated_constant(mutation):
    assert _identity_mismatches(CONSTANT_MUTATIONS[mutation]) > 0


def test_integral_constants_are_the_exact_one_over_pi_to_the_n_plus_one(monkeypatch):
    # the float constants heat builds, general and classical, within 4 ulps of the exact
    # constant of the identity over pi^{n+1}
    constants = []
    monkeypatch.setattr(heat, "_heat_kernel", lambda *args: constants.append(args[-1]))
    heat_kernel_integral(1, 0, 0.5, 0j, 0j)
    heat_kernel_integral_hi(1, 0.5, 0j, 0j)
    general, classical = constants
    with mp.workdps(40):
        for n, two_nu in product(range(1, 6), range(8)):
            exact = _exact_constant(n, two_nu)
            reference = float(mp.mpf(exact.numerator) / exact.denominator / mp.pi ** (n + 1))
            assert abs(general(n, two_nu) - reference) <= 4 * math.ulp(reference)
            if two_nu == 0:
                assert abs(classical(n, 0) - reference) <= 4 * math.ulp(reference)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_whole_series_term_is_at_most_its_diagonal_value(n):
    # the one sup: |c^{2nu} P_m^{(n-1,2nu)}(cos 2d)| <= P_m^{(n-1,2nu)}(1) = comb(m+n-1, m)
    # (Cauchy-Schwarz on the m-th reproducing kernel), whatever 2nu; checked squared, exactly,
    # at c^2 = k/32, and attained at d = 0
    N = 32
    for two_nu, m in product((0, 1, 3, 10, 100), range(20)):
        sup = comb(m + n - 1, m)
        for k in range(N + 1):
            scaled = _scaled_jacobi(m, n - 1, two_nu, k, N)
            assert k**two_nu * scaled**2 <= sup**2 * N ** (two_nu + 2 * m)
        assert scaled == sup * N**m


@pytest.mark.parametrize("t", [1e-3, 3e-3, 0.01, 0.05, 0.1, 0.5, 1.0])
def test_both_forms_keep_the_same_terms_and_report_the_same_bound(t):
    # one truncation: the integral keeps the terms the series keeps at its default eps, and
    # both report its bound, the same at every pair
    for n, two_nu in product(range(1, 5), range(5)):
        z, w = (0.1 + 0.05j,) * n, (0.2 - 0.1j,) * n
        series = heat_kernel_series(n, two_nu, t, z, w)
        forms = [heat_kernel_integral(n, two_nu, t, z, w)]
        if two_nu == 0:
            forms.append(heat_kernel_integral_hi(n, t, z, w))
        for integral in forms:
            assert (integral.terms_used, integral.error_bound) == (series.terms_used,
                                                                   series.error_bound)
        assert heat_kernel_series(n, two_nu, t, z, z).error_bound == series.error_bound


@pytest.mark.parametrize("w", [0.3 + 0.2j, 0.305 + 0.2j, 0.32 + 0.21j, 0.1 - 0.4j],
                         ids=["diagonal", "near", "nearby", "far"])
def test_series_at_large_two_nu_lies_within_its_bound(w):
    # the sup comb(m+n-1, m) does not grow with 2nu (comb(m+2nu, m) overflowed binary64
    # here); on the diagonal the change on truncating 1e4 times tighter is 0.999 of the
    # bound, so the bound is tight there. Rounding, which the bound leaves out, is allowed
    z = 0.3 + 0.2j
    k = heat_kernel_series(1, 1000, 1.5e-4, z, w)
    ref = heat_kernel_series(1, 1000, 1.5e-4, z, w, eps=1e-14)
    assert k.terms_used == 47 and cmath.isfinite(k.value)
    assert abs(k.value - ref.value) <= k.error_bound + 8 * 2.0**-53 * abs(ref.value)


@pytest.mark.parametrize("n,two_nu,t", [(2, 0, 1e-3), (3, 2, 0.01), (2, 1, 0.05)])
def test_series_bound_is_nearly_attained_on_the_diagonal(n, two_nu, t):
    # on the diagonal every term takes its sup comb(m+n-1, m), so the change on truncating
    # 1e4 times tighter is within the bound and at least 0.99 of it
    z = (0.3 + 0.2j,) + (0.1,) * (n - 1)
    k, ref = heat_kernel_series(n, two_nu, t, z, z), heat_kernel_series(n, two_nu, t, z, z, 1e-14)
    assert 0.99 * k.error_bound <= abs(k.value - ref.value)
    assert abs(k.value - ref.value) <= k.error_bound + 8 * 2.0**-53 * abs(ref.value)


def test_classical_constant_overflow_is_typed():
    # (n-1)! passes binary64 at n = 172: a typed error, as in the general-nu form
    from projheat.errors import Binary64Overflow

    z, w = (0.01,) * 172, (0.02,) * 172
    with pytest.raises(Binary64Overflow, match="classical constant"):
        heat_kernel_integral_hi(172, 0.5, z, w)
    with pytest.raises(Binary64Overflow, match="integral-form constant"):
        heat_kernel_integral(172, 0, 0.5, z, w)


def test_integral_pair_scale_overflow_is_typed():
    # |q| = 1e-5 near the antipode, so const conj(q)^{-70} passes binary64: a typed error
    # naming the scale, in a row call too, and no numpy warning on the way
    from projheat.errors import Binary64Overflow

    z, w = (100000,), (-0.00001 + 0.00001j,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Binary64Overflow, match="conj"):
            heat_kernel_integral(1, 70, 0.5, z, w)
        with pytest.raises(Binary64Overflow, match="conj"):
            heat_kernel_integral(1, 70, 0.5, np.array([[0.3 + 0.2j], z]),
                                 np.array([[0.1 - 0.4j], w]))


def test_trace_term_overflow_is_typed():
    # on P^200, dim(A_m^0) passes binary64 while its Gaussian weight is still > 0
    from projheat.errors import Binary64Overflow

    with pytest.raises(Binary64Overflow, match="trace term"):
        trace_direct(200, 0, 0.001)
