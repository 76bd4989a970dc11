"""Exact arithmetic layer: Bernoulli families, pochhammer, power sums."""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projheat.exactnum import (
    _Series,
    bernoulli_number,
    bernoulli_polynomial,
    binomial_general,
    pochhammer,
    power_sum,
    rational_str,
    theta2_series_coefficient,
)


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """Independent Bernoulli oracle (second convention, B_1 = +1/2)."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


def test_bernoulli_against_akiyama_tanigawa():
    oracle = akiyama_tanigawa(40)
    for d in range(41):
        expected = -oracle[d] if d == 1 else oracle[d]
        assert bernoulli_number(d) == expected


def test_bernoulli_examples():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(3) == 0
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(1) == Fraction(-1, 2)


def test_bernoulli_polynomial_examples():
    assert bernoulli_polynomial(0, Fraction(7, 3)) == 1
    assert bernoulli_polynomial(1, Fraction(1, 2)) == 0
    assert bernoulli_polynomial(2, Fraction(1, 2)) == Fraction(-1, 12)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 0.5j, np.float64(math.inf)],
                         ids=["inf", "-inf", "nan", "complex", "numpy-inf"])
def test_bernoulli_polynomial_rejects_a_non_finite_or_complex_x(x):
    # infinity was a raw OverflowError from Fraction
    with pytest.raises(ValueError, match="^x must be a finite real number"):
        bernoulli_polynomial(3, x)


def test_bernoulli_polynomial_at_zero_recovers_numbers():
    for d in range(41):
        assert bernoulli_polynomial(d, 0) == bernoulli_number(d)


@given(st.integers(min_value=1, max_value=18),
       st.fractions(min_value=-3, max_value=3, max_denominator=6))
def test_bernoulli_polynomial_difference_equation(d, x):
    # B_d(x+1) - B_d(x) = d x^{d-1} pins the polynomial given B_d(0) = B_d
    assert bernoulli_polynomial(d, x + 1) - bernoulli_polynomial(d, x) == d * x ** (d - 1)


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                               Fraction(7, 2), Fraction(4), Fraction(-5, 3), Fraction(22, 7),
                               Fraction(-3), Fraction(5), Fraction(-7, 2), Fraction(1, 3),
                               Fraction(7, 6), 10**6 + Fraction(1, 7)])
def test_bernoulli_polynomial_textbook_sum(x):
    # term by term sum C(d,k) B_k x^{d-k} over the independent oracle, against the
    # cached integer row C(d,k) L B_k that bernoulli_polynomial sums by Horner's rule
    oracle = akiyama_tanigawa(90)
    numbers = [-b if k == 1 else b for k, b in enumerate(oracle)]
    for d in range(91):
        textbook = sum((math.comb(d, k) * numbers[k] * x ** (d - k) for k in range(d + 1)),
                       Fraction(0))
        assert bernoulli_polynomial(d, x) == textbook


def test_theta2_series_coefficient_values():
    assert theta2_series_coefficient(0) == Fraction(1, 12)
    assert theta2_series_coefficient(1) == Fraction(7, 480)


def test_theta2_series_coefficient_is_not_bernoulli():
    # the two sequences share a symbol in the literature but differ
    assert theta2_series_coefficient(1) != bernoulli_number(1)
    assert theta2_series_coefficient(2) != bernoulli_number(2)


@pytest.mark.parametrize("d", range(21))
def test_half_argument_identity(d):
    lhs = bernoulli_polynomial(2 * d + 2, Fraction(1, 2))
    assert lhs == (-1) ** (d + 1) * (d + 1) * theta2_series_coefficient(d)


@pytest.mark.parametrize("d", range(41))
def test_half_argument_textbook(d):
    lhs = bernoulli_polynomial(d, Fraction(1, 2))
    assert lhs == -(1 - Fraction(2) ** (1 - d)) * bernoulli_number(d)


def test_pochhammer_examples():
    assert pochhammer(5, 0) == 1
    assert pochhammer(-3, 5) == 0
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)


@pytest.mark.parametrize("a", range(-5, 6))
def test_pochhammer_of_an_int_equals_the_fraction_loop(a):
    # an int a multiplies integers; the value, zero crossings included, and the type are kept
    for k in range(9):
        expected = Fraction(1)
        for j in range(k):
            expected *= Fraction(a) + j
        got = pochhammer(a, k)
        assert type(got) is Fraction and got == expected == pochhammer(Fraction(a), k)


@given(st.fractions(min_value=-4, max_value=4, max_denominator=4),
       st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_pochhammer_additivity(a, j, k):
    assert pochhammer(a, j + k) == pochhammer(a, j) * pochhammer(a + j, k)


def test_binomial_general_examples():
    assert binomial_general(4, 2) == 6
    assert binomial_general(Fraction(9, 7), 0) == 1
    assert binomial_general(Fraction(-1, 2), 2) == Fraction(3, 8)


@given(st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.integers(min_value=0, max_value=8))
def test_binomial_pochhammer_relation(a, k):
    assert binomial_general(a, k) == (-1) ** k * pochhammer(-a, k) / math.factorial(k)


def test_power_sum_examples():
    assert power_sum(0, 3, Fraction(1, 2)) == Fraction(1, 8)
    assert power_sum(3, 1, 0) == 6
    brute = sum(Fraction(k) + Fraction(1, 2) for k in range(5))
    assert power_sum(4, 1, Fraction(1, 2)) == brute
    brute5 = sum((Fraction(k) + Fraction(1, 2)) ** 5 for k in range(5))
    assert power_sum(4, 5, Fraction(1, 2)) == brute5


@pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)])
def test_power_sum_brute_force_grid(a):
    for m in range(11):
        for q in range(1, 10):
            assert power_sum(m, q, a) == sum((k + a) ** q for k in range(m + 1))


def _integer_label(low: int, high: int):
    """An int in [low, high], or the same as a numpy int64."""
    ints = st.integers(low, high)
    return st.one_of(ints, ints.map(np.int64))


@given(_integer_label(0, 30), _integer_label(1, 25),
       st.one_of(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7)),
                 _integer_label(-9, 9)))
def test_power_sum_equals_its_fraction_definition(m, q, a):
    # one integer over L s^{q+1} (q+1), against the sum term by term; a numpy
    # label or a numpy a computes in Python ints, as the Fraction sum does
    got = power_sum(m, q, a)
    a = a if isinstance(a, Fraction) else Fraction(int(a))
    assert type(got) is Fraction
    assert got == sum((k + a) ** int(q) for k in range(int(m) + 1))


@pytest.mark.parametrize("m,q", [(2.0, 3), (2.5, 3), (2, 3.0)])
def test_power_sum_rejects_non_integer_labels(m, q):
    name = "m" if isinstance(m, float) else "q"
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        power_sum(m, q, Fraction(1, 2))


@given(_integer_label(0, 30), st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7)))
def test_bernoulli_polynomial_reads_numpy_labels_as_python_ints(d, x):
    expected = sum(math.comb(int(d), k) * bernoulli_number(k) * x ** (int(d) - k)
                   for k in range(int(d) + 1))
    assert bernoulli_polynomial(d, x) == expected == bernoulli_polynomial(int(d), x)


@given(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7)), _integer_label(0, 60))
@example(Fraction(1, 3), np.int64(40))  # 3**np.int64(40) wraps
def test_pochhammer_and_binomial_read_numpy_orders_as_python_ints(a, k):
    rising = falling = Fraction(1)
    for j in range(int(k)):
        rising *= a + j
        falling *= a - j
    assert pochhammer(a, k) == rising
    assert binomial_general(a, k) == falling / math.factorial(int(k))


@cache
def _standard_bernoulli() -> list[Fraction]:
    """B_0..B_256 in the B_1 = -1/2 convention, from the Akiyama-Tanigawa oracle."""
    return [-b if d == 1 else b for d, b in enumerate(akiyama_tanigawa(256))]


@settings(deadline=None)  # the first example builds the oracle to B_256
@given(_integer_label(0, 60))
@example(np.int8(127))  # d + 1 and 2 d + 2 wrap in int8
def test_bernoulli_sequences_read_numpy_orders_as_python_ints(d):
    # lru_cache keys an int by itself and a numpy int by a tuple, so a cached
    # B_d never answers the numpy order: each numpy d runs the function
    standard, i = _standard_bernoulli(), int(d)
    assert bernoulli_number(d) == standard[i]
    assert theta2_series_coefficient(d) == (Fraction((-1) ** i, i + 1)
                                            * (1 - Fraction(1, 2 ** (2 * i + 1))) * standard[2 * i + 2])


@pytest.mark.parametrize("call,name", [(lambda: pochhammer(Fraction(1, 2), 3.0), "k"),
                                       (lambda: binomial_general(Fraction(1, 2), 3.0), "k"),
                                       (lambda: bernoulli_number(4.0), "d"),
                                       (lambda: theta2_series_coefficient(4.0), "d")],
                         ids=["pochhammer", "binomial_general", "bernoulli_number",
                              "theta2_series_coefficient"])
def test_exact_orders_reject_floats(call, name):
    # also after an equal numpy-int key is cached: an untyped cache would answer 4.0 from it
    bernoulli_number(np.int64(4)), theta2_series_coefficient(np.int64(4))
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()


coefficient_lists = st.lists(st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12)),
                             min_size=1, max_size=12)


def series_values(series):
    return [Fraction(num, series.den) for num in series.nums]


@given(coefficient_lists)
def test_series_from_fractions_keeps_each_value_over_the_lcm(values):
    series = _Series.from_fractions(values)
    assert series_values(series) == values
    assert series.den == math.lcm(*(v.denominator for v in values))


@given(st.fractions(min_value=-9, max_value=9, max_denominator=12),
       st.integers(min_value=1, max_value=30))
def test_series_exp_is_powers_over_factorials(base, length):
    series = _Series.exp(base, length)
    assert series.den > 0
    assert series_values(series) == [base**k / math.factorial(k) for k in range(length)]


@given(coefficient_lists, coefficient_lists)
def test_series_product_is_the_cauchy_product_at_the_shorter_length(a, b):
    product = _Series.from_fractions(a) * _Series.from_fractions(b)
    assert series_values(product) == [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
                                      for k in range(min(len(a), len(b)))]


def test_results_in_lowest_terms():
    for d in (2, 4, 12, 30):
        b = bernoulli_number(d)
        assert math.gcd(b.numerator, b.denominator) == 1
        assert b.denominator > 0


def test_rational_serialization_round_trip():
    for x in (Fraction(0), Fraction(-7, 480), Fraction(4), Fraction(11, 12)):
        s = rational_str(x)
        assert "/" in s
        assert Fraction(s) == x
    assert rational_str(Fraction(0)) == "0/1"


def test_cache_safe_under_concurrent_growth():
    # threads racing from empty caches, switching every microsecond, must
    # each get the right value and leave the right B_0..B_d cached. Each race
    # interleaves differently, so 300 short races run before the one to B_80.
    oracle = akiyama_tanigawa(80)
    standard = [-b if d == 1 else b for d, b in enumerate(oracle)]
    theta2 = [Fraction((-1) ** d, d + 1) * (1 - Fraction(1, 2 ** (2 * d + 1))) * oracle[2 * d + 2]
              for d in range(31)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            for d, dt in [(10, 4)] * 300 + [(80, 30)]:
                bernoulli_number.cache_clear()
                theta2_series_coefficient.cache_clear()
                results = list(pool.map(bernoulli_number, [d] * 64))
                thetas = list(pool.map(theta2_series_coefficient, [dt] * 64))
                assert results == [standard[d]] * 64 and thetas == [theta2[dt]] * 64
                assert [bernoulli_number(k) for k in range(d + 1)] == standard[:d + 1]
    finally:
        sys.setswitchinterval(interval)
