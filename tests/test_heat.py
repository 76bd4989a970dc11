"""Heat kernels (series and integral forms), theta sums, spectral trace."""

from __future__ import annotations

import math
from math import exp, factorial, pi

import mpmath as mp
import numpy as np
import pytest

from projheat import heat
from projheat.errors import AntipodalDegenerate, NonPositiveTime, TruncationFailed
from projheat.exactnum import bernoulli_number, theta2_series_coefficient
from projheat.heat import (
    big_theta,
    heat_kernel_integral,
    heat_kernel_integral_hi,
    heat_kernel_series,
    heat_kernel_series_grid,
    terms_needed,
    theta2,
    theta3,
    theta_deriv,
    trace_direct,
)
from projheat.kernels import fs_distance
from projheat.quadrature import gauss_legendre, plane_mu1_rule
from projheat.spectrum import SpectralPoint, dimension_product_form, eigenvalue_beta


def test_time_validation():
    with pytest.raises(NonPositiveTime):
        theta2(0.0)
    with pytest.raises(NonPositiveTime):
        theta_deriv(3, 1, -0.5)
    with pytest.raises(NonPositiveTime):
        heat_kernel_series(1, 0, 0.0, 0j, 0j)
    with pytest.raises(NonPositiveTime):
        heat_kernel_integral(1, 0, -1.0, 0j, 0.1 + 0j)
    with pytest.raises(NonPositiveTime):
        trace_direct(1, 0, 0.0)
    with pytest.raises(NonPositiveTime):
        big_theta(1, 0, -0.1, 0.3)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("call", [
    lambda eps: theta_deriv(2, 1, 0.5, eps=eps),
    lambda eps: big_theta(2, 1, 0.5, 0.3, eps=eps),
    lambda eps: heat_kernel_series(1, 1, 0.5, (0.3 + 0.2j,), (0.1 - 0.4j,), eps=eps),
    lambda eps: trace_direct(1, 0, 0.1, eps=eps),
], ids=["theta_deriv", "big_theta", "heat_kernel_series", "trace_direct"])
def test_eps_must_be_positive(call, eps):
    with pytest.raises(ValueError, match="eps must be > 0"):
        call(eps)


def test_terms_needed_geometric_cut(monkeypatch):
    # ratio 1/2: tail 2^-M / (1 - 1/2) < 1e-6 first at M = 21; each bound once
    seen = []

    def bound(m):
        seen.append(m)
        return 0.5**m

    assert terms_needed(bound, 1e-6) == (21, 2.0 * 0.5**21)
    assert len(seen) == len(set(seen))
    monkeypatch.setattr("projheat.heat._MAX_TERMS", 50)
    with pytest.raises(TruncationFailed):
        terms_needed(lambda m: 1.0, 1e-3)


def test_theta_large_t_leading_terms():
    t = 8.0
    assert theta3(t) - 2 * exp(-t) == pytest.approx(4 * exp(-4 * t), rel=1e-3)
    assert theta2(t) == pytest.approx(exp(-t / 4), rel=1e-5)


def test_theta_eps_controls_tail():
    loose = theta2(0.08, eps=1e-6)
    tight = theta2(0.08, eps=1e-14)
    assert abs(loose - tight) < 1e-6


def _theta2_truncated_asym(p: int, t: float, terms: int) -> tuple[float, float]:
    val = factorial(p) / t ** (1 + p) + (-1) ** p * math.fsum(
        float(theta2_series_coefficient(s + p)) * t**s / factorial(s) for s in range(terms))
    omitted = abs(float(theta2_series_coefficient(terms + p))) * t**terms / factorial(terms)
    return val, omitted


def _theta3_truncated_asym(l: int, t: float, terms: int) -> tuple[float, float]:
    val = factorial(l) / t ** (1 + l) + (-1) ** l * math.fsum(
        (-1) ** (j + 1) * float(bernoulli_number(2 * j + 2)) * t ** (j - l)
        / ((j + 1) * factorial(j - l)) for j in range(l, l + terms))
    j = l + terms
    omitted = abs(float(bernoulli_number(2 * j + 2))) * t**terms / ((j + 1) * factorial(terms))
    return val, omitted


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
    printed = 1.0 / t + math.fsum(
        (-1) ** j * float(bernoulli_number(2 * j + 2)) * t**j / ((j + 1) * factorial(j))
        for j in range(6))
    assert abs(exact - printed) > 0.3


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
        # the package entry point agrees with the test-local series
        assert big_theta(n, two_nu, t, u0) == pytest.approx(float(theta_mp(mp.mpf(u0))), rel=1e-10)


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


def test_heat_series_mass_is_one():
    # int H_0(t, z, w) dmu_1(w) = 1 (constants are the m=0 eigenspace)
    us, wgt = plane_mu1_rule(200, 200)
    for t in (0.5, 1.0):
        vals = heat_kernel_series_grid(0, t, 0.3 + 0.2j, us)
        assert np.sum(vals * wgt).real == pytest.approx(1.0, abs=1e-6)


def test_heat_series_grid_matches_scalar():
    rng = np.random.default_rng(21)
    z = complex(*rng.normal(0, 0.5, 2))
    us = np.array([complex(*rng.normal(0, 0.8, 2)) for _ in range(4)])
    grid = heat_kernel_series_grid(2, 0.7, z, us)
    for i, u in enumerate(us):
        scalar = heat_kernel_series(1, 2, 0.7, z, u).value
        assert grid[i] == pytest.approx(scalar, rel=1e-10)


def test_heat_semigroup_property():
    # int H_0(s,z,u) H_0(t,u,w) dmu_1(u) = H_0(s+t,z,w)
    us, wgt = plane_mu1_rule(200, 200)
    z, w = 0.25 + 0.1j, -0.3 + 0.4j
    s, t = 0.4, 0.7
    left = heat_kernel_series_grid(0, s, z, us)
    right = heat_kernel_series_grid(0, t, w, us)  # H_0 symmetric at nu=0
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


@pytest.mark.parametrize("nodes", [8, 2048])
def test_quadrature_config_validation(nodes, monkeypatch):
    # rejected before any rule is built
    monkeypatch.setattr(heat, "gauss_legendre", None)
    with pytest.raises(ValueError):
        heat_kernel_integral(1, 1, 0.5, 0.1j, 0.2, nodes=nodes)
    with pytest.raises(ValueError):
        heat_kernel_integral_hi(1, 0.5, 0.1j, 0.2, nodes=nodes)


@pytest.mark.parametrize("nodes", [16, 1024])
def test_integral_evaluates_at_least_two_node_counts(nodes, monkeypatch):
    # the error bound's quadrature term needs a doubling even at the cap
    seen = []

    def recording(k, a, b):
        seen.append(k)
        return gauss_legendre(k, a, b)

    monkeypatch.setattr(heat, "gauss_legendre", recording)
    k = heat_kernel_integral(1, 1, 0.5, 0.3 + 0.2j, 0.1 - 0.4j, nodes=nodes)
    assert seen[0] == nodes and len(set(seen)) >= 2 and k.error_bound > 0
    seen.clear()
    heat_kernel_integral_hi(1, 0.5, 0.3 + 0.2j, 0.1 - 0.4j, nodes=nodes)
    assert seen[0] == nodes and len(set(seen)) >= 2


def test_trace_large_t_limit():
    # only m=0 survives and its exponents cancel exactly at n=1, nu=0
    assert trace_direct(1, 0, 40.0) == pytest.approx(1.0, rel=1e-12)


def test_trace_direct_against_inline_sum():
    # n=1, nu=1: sum (2m+3) e^{(1/4+1)t} e^{-(m+3/2)^2 t}
    t = 0.1
    brute = math.fsum((2 * m + 3) * exp((0.25 + 1) * t) * exp(-((m + 1.5) ** 2) * t)
                      for m in range(400))
    assert trace_direct(1, 2, t) == pytest.approx(brute, rel=1e-12)


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
