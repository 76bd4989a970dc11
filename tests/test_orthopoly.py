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
from projheat.exactnum import binomial_general, pochhammer
from projheat import orthopoly
from projheat.orthopoly import gauss2f1_terminating, gegenbauer_values, jacobi


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


@pytest.mark.parametrize("k,a,b", [(2, -1, -1), (1, -1, -1), (3, -2, 4), (3, 1, -3),
                                   (4, -2, -3), (2, Fraction(1, 2), -1)])
def test_jacobi_ndarray_negative_integer_parameter_matches_scalars(k, a, b):
    # an ndarray once went through the recurrence, whose c1 vanishes here (NaN)
    x = np.linspace(-1.0, 1.0, 9)
    values = jacobi(k, a, b, x)
    assert values.shape == x.shape
    for xi, vi in zip(x, values):
        assert vi == pytest.approx(jacobi(k, a, b, float(xi)), rel=1e-13, abs=1e-14)
    assert jacobi(2, -1, -1, np.array([0.3]))[0] == pytest.approx(-0.2275, rel=1e-13)


def _dense_weights(k, a, b) -> list:
    """C(k+a, j) C(k+b, k-j) for j = 0..k, zeros included: the finite-sum weights."""
    a, b = Fraction(a), Fraction(b)
    return [binomial_general(a + k, j) * binomial_general(b + k, k - j) for j in range(k + 1)]


def _finite_sum_over_fraction_weights(k, a, b, x):
    # the binary64 finite sum read straight off the Fraction weights, float(c) per term
    total = x * 0 + 0.0
    for j, c in enumerate(_dense_weights(k, a, b)):
        if c:
            total = total + float(c) * (x + 1.0) ** j * (x - 1.0) ** (k - j)
    return total / 2.0**k


@pytest.mark.parametrize("k,a,b", [(1, -1, -1), (2, -1, -1), (3, -2, 4), (3, 1, -3),
                                   (4, -2, -3), (2, Fraction(1, 2), -1), (0, -1, 2),
                                   (3, -3, 0), (3, 5, -1), (5, -2, Fraction(7, 3)), (70, -1, 0)])
def test_jacobi_float_finite_sum_is_the_fraction_weight_loop_bit_for_bit(k, a, b):
    # the nonzero (j, c_j) pairs, and jacobi's cached evaluator over their floats, change
    # no bit, for scalars and for ndarrays; a numpy-int x is binary64 before its powers,
    # so (x + 1)^70 cannot wrap
    x = np.linspace(-1.5, 1.5, 31)
    assert orthopoly._finite_sum_coeffs(k, Fraction(a), Fraction(b)) == tuple(
        (j, c) for j, c in enumerate(_dense_weights(k, a, b)) if c)
    assert jacobi(k, a, b, x).tobytes() == _finite_sum_over_fraction_weights(k, a, b, x).tobytes()
    for xi in [*x.tolist(), 0.3 - 0.2j, np.float64(0.7), np.int64(3), np.int8(-1)]:
        got, expected = jacobi(k, a, b, xi), _finite_sum_over_fraction_weights(k, a, b, xi)
        assert type(got) is type(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


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
    assert gegenbauer_values(0, 2, 0.4)[0] == 1.0
    assert gegenbauer_values(1, 2, 0.25)[1] == pytest.approx(1.0)
    for x in (-0.8, 0.1, 0.9):
        assert gegenbauer_values(2, 1, x)[2] == pytest.approx(4 * x * x - 1)
    rng = np.random.default_rng(5)
    for _ in range(40):
        k = int(rng.integers(0, 14))
        lam = float(rng.uniform(0.5, 6.0))
        x = float(rng.uniform(-1, 1))
        assert gegenbauer_values(k, lam, x)[k] == pytest.approx(
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
            rhs = 2**l * math.factorial(l) * gegenbauer_values(k, l + 1, math.cos(u0))[k]
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


def _jacobi_values_inline(kmax, alpha, beta, x) -> list:
    """[P_0, ..., P_kmax](x) by the recurrence, each step's constants computed inside the loop."""
    vals = [x * 0 + 1.0]
    if kmax >= 1:
        vals.append((alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0)
    for i in range(2, kmax + 1):
        s = 2.0 * i + alpha + beta
        c1 = 2.0 * i * (i + alpha + beta) * (s - 2.0)
        c2 = (s - 1.0) * ((s * (s - 2.0)) * x + alpha * alpha - beta * beta)
        c3 = 2.0 * (i + alpha - 1.0) * (i + beta - 1.0) * s
        vals.append((c2 * vals[-1] - c3 * vals[-2]) / c1)
    return vals


def _value_bits(vals) -> list:
    return [(type(v), np.asarray(v).tobytes()) for v in vals]


@pytest.mark.parametrize("alpha,beta", [(0, 0), (1, 2), (3, 0), (7, 3), (4, 9), (0.0, 0.0),
                                        (1.0, 2.0), (2.5, 0.5), (2, 4.75), (0.75, 6.5)],
                         ids=str)
def test_jacobi_recurrence_constants_are_the_inline_recurrence_bit_for_bit(alpha, beta):
    # constants built once (_recurrence, as a _jacobi_plan evaluator holds them) change no
    # bit and no type, for int and float parameters, at float, complex and ndarray x,
    # degrees 0..60
    grid = np.random.default_rng(61).uniform(-1.0, 1.0, 24)
    xs = [*grid.tolist(), 0.37, np.float64(-0.81), 0.3 - 0.2j, np.complex128(-0.6 + 0.1j), grid]
    for kmax in range(61):
        evaluate = orthopoly._jacobi_plan(kmax, alpha, beta)
        for x in xs:
            got = orthopoly._recurrence_values(kmax, orthopoly._recurrence(kmax, alpha, beta), x)
            expected = _jacobi_values_inline(kmax, alpha, beta, x)
            assert _value_bits(got) == _value_bits(expected)
            # the plan's evaluator runs constants built from the float parameters
            expected = _jacobi_values_inline(kmax, float(alpha), float(beta), x)[kmax]
            assert _value_bits([evaluate(x)]) == _value_bits([expected])


def _tagged_plan(k, alpha, beta) -> tuple:
    """orthopoly._jacobi_plan as it was: (weights, None) at a negative-integer parameter,
    the floats of the nonzero dense weights; (None, recurrence constants) otherwise."""
    a, b = Fraction(alpha), Fraction(beta)
    if (a.denominator == 1 and a < 0) or (b.denominator == 1 and b < 0):
        return tuple((j, float(c)) for j, c in enumerate(_dense_weights(k, a, b)) if c), None
    return None, orthopoly._recurrence(k, float(a), float(b))


def _tagged_plan_reader(k, plan, x):
    """orthopoly._jacobi_float as it was: P_k(x) by a tagged plan of degree k."""
    weights, recurrence = plan
    if weights is None:
        return orthopoly._recurrence_values(k, recurrence, x)[k]
    return orthopoly._finite_sum(k, weights, x, 1.0)


@pytest.mark.parametrize("alpha,beta", [(0, 0), (2, 5), (2.5, 0.5), (Fraction(1, 2), 3),
                                        (-1, 0), (-1, -1), (-2, 4), (3, -3),
                                        (-2, Fraction(7, 3)), (0, -1)], ids=str)
def test_jacobi_evaluator_is_the_tagged_plan_reader_bit_for_bit(alpha, beta):
    # the evaluator gives the tagged plan's values, bit for bit and of the same type, at
    # float, complex and ndarray x, degrees 0..60, negative-integer parameters included
    grid = np.random.default_rng(62).uniform(-1.5, 1.5, 24)
    xs = [*grid[:6].tolist(), np.float64(0.7), 0.3 - 0.2j, np.complex128(-0.6 + 0.1j), grid]
    for k in range(61):
        evaluate, plan = orthopoly._jacobi_plan(k, alpha, beta), _tagged_plan(k, alpha, beta)
        for x in xs:
            expected = _tagged_plan_reader(k, plan, x)
            assert _value_bits([evaluate(x), jacobi(k, alpha, beta, x)]) == \
                _value_bits([expected, expected])
