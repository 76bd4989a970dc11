"""Orthogonal polynomials: exact/float agreement, classical identities."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_gegenbauer, eval_jacobi

from projheat.errors import PoleError
from projheat.exactnum import pochhammer
from projheat.orthopoly import gauss2f1_terminating, gegenbauer_eval, jacobi


def test_jacobi_trivial_and_frozen():
    assert jacobi(0, 2, 5, 0.3) == 1.0
    # Legendre P_2(1/2) = (3x^2-1)/2 = -1/8
    assert jacobi(2, 0, 0, Fraction(1, 2)) == Fraction(-1, 8)


@pytest.mark.parametrize("n,two_nu,m", [(1, 0, 3), (2, 2, 4), (3, 1, 2), (4, 3, 5)])
def test_jacobi_at_one_matches_pochhammer(n, two_nu, m):
    # P_m^{(n-1,2nu)}(1) = (n)_m / m!
    assert jacobi(m, n - 1, two_nu, Fraction(1)) == pochhammer(n, m) / math.factorial(m)
    assert jacobi(3, 1, 0, Fraction(1)) == 4


def test_jacobi_float_path_against_scipy():
    rng = np.random.default_rng(11)
    for _ in range(60):
        k = int(rng.integers(0, 12))
        a = float(rng.uniform(-0.4, 4.0))
        b = float(rng.uniform(-0.4, 4.0))
        x = float(rng.uniform(-1.0, 1.0))
        ours = jacobi(k, Fraction(a).limit_denominator(64), Fraction(b).limit_denominator(64), x)
        aa, bb = float(Fraction(a).limit_denominator(64)), float(Fraction(b).limit_denominator(64))
        ref = eval_jacobi(k, aa, bb, x)
        assert ours == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_jacobi_exact_and_float_paths_agree():
    for k in range(9):
        for x in (Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3)):
            exact = jacobi(k, Fraction(3, 2), 2, x)
            floating = jacobi(k, Fraction(3, 2), 2, float(x))
            assert floating == pytest.approx(float(exact), rel=1e-12)


def test_jacobi_negative_integer_parameter_structural_zero():
    # P_m^{(-j,beta)} vanishes at x=1 to order j for 0 < j <= m
    for m in range(1, 5):
        for j in range(1, m + 1):
            assert jacobi(m, -j, 3, Fraction(1)) == 0
    # and the float path survives negative parameters
    val = jacobi(3, -2, 5, 0.75)
    exact = jacobi(3, -2, 5, Fraction(3, 4))
    assert val == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("k", range(11))
def test_jacobi_symmetry(k):
    a, b = Fraction(5, 2), Fraction(1, 3)
    for x in (Fraction(-1, 2), Fraction(1, 5), Fraction(7, 8)):
        assert jacobi(k, a, b, -x) == (-1) ** k * jacobi(k, b, a, x)


def test_gauss2f1_trivial():
    assert gauss2f1_terminating(0, Fraction(5), Fraction(3), 0.77) == 1.0
    assert gauss2f1_terminating(6, Fraction(5), Fraction(3), Fraction(0)) == 1


def test_gauss2f1_pole_error():
    with pytest.raises(PoleError):
        gauss2f1_terminating(3, Fraction(1, 2), Fraction(-1), Fraction(1, 3))
    # numerator dies before the pole: fine
    val = gauss2f1_terminating(5, Fraction(-1), Fraction(-3), Fraction(1, 2))
    assert val == 1 - Fraction(5) * Fraction(-1) / Fraction(-3) / 2  # j=1 term only


@pytest.mark.parametrize("k", range(9))
def test_gauss2f1_jacobi_connection(k):
    # 2F1(-k, b; c; x) = k!/(c)_k P_k^{(c-1, b-c-k)}(1 - 2x), exact rationals
    b, c = Fraction(7, 3), Fraction(3, 2)
    for x in (Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3)):
        lhs = gauss2f1_terminating(k, b, c, x)
        rhs = Fraction(math.factorial(k)) / pochhammer(c, k) * jacobi(k, c - 1, b - c - k, 1 - 2 * x)
        assert lhs == rhs


@pytest.mark.parametrize("k", range(9))
def test_pfaff_transformation_exact(k):
    b, c = Fraction(5, 4), Fraction(7, 3)
    for x in (Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3)):
        lhs = gauss2f1_terminating(k, b, c, x)
        rhs = (1 - x) ** k * gauss2f1_terminating(k, c - b, c, x / (x - 1))
        assert lhs == rhs


@pytest.mark.parametrize("k", range(7))
def test_normalized_jacobi_2f1_form(k):
    # R_k^{(a,b)}(u) = P_k(u)/P_k(1) = ((1+u)/2)^k 2F1(-k, -k-b; a+1; (u-1)/(u+1));
    # the argument sign follows from Pfaff applied to the classical
    # 2F1(-k, k+a+b+1; a+1; (1-u)/2) form; P_k^{(a,b)}(1) = (a+1)_k / k!
    a, b = Fraction(2), Fraction(3, 2)
    at_one = pochhammer(a + 1, k) / math.factorial(k)
    for u in (Fraction(-1, 3), Fraction(0), Fraction(1, 2), Fraction(9, 10)):
        lhs = jacobi(k, a, b, u) / at_one
        rhs = ((1 + u) / 2) ** k * gauss2f1_terminating(k, -k - b, a + 1, (u - 1) / (u + 1))
        assert lhs == rhs
        classic = gauss2f1_terminating(k, k + a + b + 1, a + 1, (1 - u) / 2)
        assert lhs == classic


@pytest.mark.parametrize("s,t", [(s, t) for s in range(7) for t in range(7)])
def test_disk_polynomial_2f1_identity(s, t):
    # 2F1(-s,-t; gamma+1; y) = (1-y)^{(s+t)/2} R_{s,t}^gamma((1-y)^{-1/2}), where on
    # real xi the disk polynomial is xi^d P_k^{(gamma,d)}(2xi^2-1) / P_k^{(gamma,d)}(1)
    # with k = min(s,t), d = |s-t|; this checks the float Jacobi recurrence
    # against the terminating 2F1, also at arguments 2xi^2-1 > 1
    gamma = Fraction(3, 2)
    k, d = min(s, t), abs(s - t)
    at_one = float(pochhammer(gamma + 1, k) / math.factorial(k))
    for y in (-0.7, 0.2, 0.64):
        lhs = gauss2f1_terminating(s, Fraction(-t), gamma + 1, y)
        xi = (1 - y) ** -0.5
        disk = xi**d * jacobi(k, gamma, d, 2.0 * xi**2 - 1.0) / at_one
        rhs = (1 - y) ** ((s + t) / 2) * disk
        assert complex(lhs) == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_gegenbauer_examples_and_scipy():
    assert gegenbauer_eval(0, 2, 0.4) == 1.0
    assert gegenbauer_eval(1, 2, 0.25) == pytest.approx(1.0)
    for x in (-0.8, 0.1, 0.9):
        assert gegenbauer_eval(2, 1, x) == pytest.approx(4 * x * x - 1)
    rng = np.random.default_rng(5)
    for _ in range(40):
        k = int(rng.integers(0, 14))
        lam = float(rng.uniform(0.5, 6.0))
        x = float(rng.uniform(-1, 1))
        assert gegenbauer_eval(k, lam, x) == pytest.approx(
            eval_gegenbauer(k, lam, x), rel=1e-10, abs=1e-10)


def _nested_sine_derivative(l: int, big: int, u0: float) -> float:
    """(-1/sin u d/du)^l [sin(big*u)/sin(u)] via high-precision differentiation."""
    def base(u):
        return mp.sin(big * u) / mp.sin(u)

    fn = base
    for _ in range(l):
        fn = (lambda prev: lambda u: -mp.diff(prev, u) / mp.sin(u))(fn)
    return float(fn(mp.mpf(u0)))


@pytest.mark.parametrize("l,k", [(1, 0), (1, 4), (2, 2), (3, 2)])
def test_gegenbauer_sine_derivative_connection(l, k):
    # (-d/(sin u du))^l [sin((k+l+1)u)/sin u] = 2^l l! C_k^{l+1}(cos u)
    with mp.workdps(40):
        for u0 in (0.3, 0.7, 1.1):
            lhs = _nested_sine_derivative(l, k + l + 1, u0)
            rhs = 2**l * math.factorial(l) * gegenbauer_eval(k, l + 1, math.cos(u0))
            assert lhs == pytest.approx(rhs, rel=1e-6)


@pytest.mark.parametrize("k,a,b,t", [(0, 2.0, 1.0, 0.4), (1, 1.0, 2.0, 0.3),
                                     (2, 2.0, 0.0, 0.7), (3, 1.0, 0.5, 0.55),
                                     (2, 0.0, 3.0, 0.25)])
def test_jacobi_gegenbauer_integral_representation(k, a, b, t):
    # P_k^{(a,b)}(2t^2-1) = (2 G(a+b+1) G(k+b+1) / (G(1/2) G(b+1/2) G(k+a+b+1)))
    #                       * int_0^1 (1-u^2)^{b-1/2} C_{2k}^{a+b+1}(t u) du
    # (the Gamma(1/2) is required; the integral form underlies the heat kernel)
    val, _ = quad(lambda u: (1 - u * u) ** (b - 0.5) * eval_gegenbauer(2 * k, a + b + 1, t * u),
                  0, 1, limit=200)
    const = (2 * math.gamma(a + b + 1) * math.gamma(k + b + 1)
             / (math.gamma(0.5) * math.gamma(b + 0.5) * math.gamma(k + a + b + 1)))
    assert const * val == pytest.approx(eval_jacobi(k, a, b, 2 * t * t - 1), rel=1e-9, abs=1e-12)


@given(st.integers(min_value=0, max_value=8),
       st.fractions(min_value=0, max_value=3, max_denominator=4),
       st.fractions(min_value=0, max_value=3, max_denominator=4),
       st.fractions(min_value=-1, max_value=1, max_denominator=16))
def test_jacobi_exact_matches_recurrence_property(k, a, b, x):
    exact = jacobi(k, a, b, x)
    assert jacobi(k, a, b, float(x)) == pytest.approx(float(exact), rel=1e-10, abs=1e-12)
