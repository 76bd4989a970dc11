"""Exact rational arithmetic and the Bernoulli-family sequences.

Every exact scalar in the package is a ``fractions.Fraction``: always in
lowest terms, denominator > 0, zero is 0/1. ``rational_str`` writes one as
"p/q", and ``Fraction`` reads that form back.

Series products that would take O(L^2) ``Fraction`` operations go through
``_Series``: integer numerators over one common denominator, whose
truncated product takes O(L^2) integer multiply-adds and no ``Fraction``.

The package reads every integer argument (a label, an order, a node count)
by ``_integer``: an int or numpy integer, never a float, at least its lower
bound. It reads every rational one by ``_rational``, as a ``Fraction`` of
Python ints. Anything else is a ValueError naming the argument.

Two distinct Bernoulli-type sequences live here and are never mixed up:

* ``bernoulli_number(d)`` -- the standard numbers B_d with the recursion
  convention B_1 = -1/2 (so sum_{k<=d} C(d+1,k) B_k = 0 for d >= 1).
* ``theta2_series_coefficient(d)`` -- the rescaled sequence
  ((-1)^d/(d+1)) (1 - 2^{-2d-1}) B_{2d+2} that appears as the small-time
  Taylor tail of the lattice theta series sum (2j+1) e^{-(j+1/2)^2 t}.
"""

from __future__ import annotations

import numbers
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, factorial, lcm
from operator import add, mul

__all__ = [
    "bernoulli_number",
    "bernoulli_polynomial",
    "theta2_series_coefficient",
    "pochhammer",
    "binomial_general",
    "power_sum",
    "rational_str",
]


def _integer(name: str, value, low: int | None = None) -> int:
    """The one integer rule: operator.index(value) (numpy's too), at least low
    when one is given, else ValueError naming the argument."""
    if type(value) is not int:
        try:
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


def _rational(name: str, value) -> Fraction:
    """The one rational rule: the exact value as a Fraction of Python ints (a
    numpy scalar's too), else (complex, NaN, infinity) ValueError naming it."""
    if type(value) is Fraction:
        return value
    if isinstance(value, numbers.Integral):
        return Fraction(_integer(name, value))
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational):
        value = float(value)
    if isinstance(value, numbers.Number):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):  # complex, NaN, infinity
            pass
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


# typed: a float key must not answer from an equal int's entry: it is a ValueError
@lru_cache(maxsize=None, typed=True)
def bernoulli_number(d: int) -> Fraction:
    """Standard Bernoulli number B_d (convention B_1 = -1/2)."""
    d = _integer("d", d, 0)
    if d == 0:
        return Fraction(1)
    # defining recursion sum_{k=0}^{d} C(d+1, k) B_k = 0, over k in increasing
    # order so that a cold cache recurses at most two deep; B_k = 0 for odd k > 1
    acc = sum((comb(d + 1, k) * bernoulli_number(k) for k in range(d) if k < 2 or k % 2 == 0),
              Fraction(0))
    return -acc / (d + 1)


@lru_cache(maxsize=None)
def _bernoulli_row(d: int) -> tuple[tuple[int, ...], int]:
    """The integers C(d,k) L B_k, k = 0..d, and L, the lcm of the denominators of B_0..B_d."""
    series = _Series.from_fractions([bernoulli_number(k) for k in range(d + 1)])
    return tuple(comb(d, k) * a for k, a in enumerate(series.nums)), series.den


def _homogeneous_horner(row, p: int, q: int) -> int:
    """sum_k row[k] p^{d-k} q^k, d = len(row) - 1, by Horner's rule in p.

    The integer q^d f(p/q) of the polynomial f(x) = sum_k row[k] x^{d-k}: on
    the row of _bernoulli_row(d), L q^d B_d(p/q); in verify's trace suite, a
    truncated asymptotic sum's numerator.
    """
    acc, q_k = 0, 1
    for a in row:
        acc *= p
        if a:
            acc += a * q_k
        q_k *= q
    return acc


def bernoulli_polynomial(d: int, x: Fraction | int) -> Fraction:
    """Exact value of the Bernoulli polynomial B_d(x) = sum C(d,k) B_k x^{d-k}.

    With x = p/q and L the lcm of the denominators of B_0..B_d, the sum is
    the integer sum_k C(d,k) (L B_k) p^{d-k} q^k over L q^d, built by Horner's
    rule in p from the cached row of C(d,k) L B_k; only the final quotient is
    a Fraction.
    """
    d = _integer("d", d, 0)
    x = _rational("x", x)
    p, q = int(x.numerator), int(x.denominator)
    row, common = _bernoulli_row(d)
    return Fraction(_homogeneous_horner(row, p, q), common * q**d)


@lru_cache(maxsize=None, typed=True)  # typed, as bernoulli_number
def theta2_series_coefficient(d: int) -> Fraction:
    """Rescaled sequence ((-1)^d/(d+1)) (1 - 2^{-2d-1}) B_{2d+2}.

    Distinct from bernoulli_number on purpose; the literature overloads the
    symbol B_d for both. Satisfies B_{2(d+1)}(1/2) = (-1)^{d+1} (d+1) * value.
    """
    d = _integer("d", d, 0)
    scale = Fraction((-1) ** d, d + 1) * (1 - Fraction(1, 2 ** (2 * d + 1)))
    return scale * bernoulli_number(2 * d + 2)


def pochhammer(a: Fraction | int, k: int) -> Fraction:
    """Shifted factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1.

    With a = p/q in lowest terms, (a)_k = prod_j (p + j q) / q^k: one
    product of integers, and one Fraction at the end.
    """
    k = _integer("k", k, 0)
    a = _rational("a", a)
    p, q = int(a.numerator), int(a.denominator)
    product = 1
    for j in range(k):
        product *= p + j * q
        if not product:
            break
    return Fraction(product, q**k)


def binomial_general(a: Fraction | int, k: int) -> Fraction:
    """Generalized binomial a(a-1)...(a-k+1)/k! = (a-k+1)_k / k! for rational a."""
    k = _integer("k", k, 0)
    return pochhammer(_rational("a", a) - k + 1, k) / factorial(k)


def power_sum(m: int, q: int, a: Fraction | int) -> Fraction:
    """Exact sum_{k=0}^{m} (k+a)^q via Bernoulli polynomials, q >= 1.

    (B_{q+1}(m+1+a) - B_{q+1}(a)) / (q+1): with a = p/s in lowest terms,
    m+1+a = (p + (m+1) s)/s has the same denominator, so the difference is
    one integer over L s^{q+1} (q+1), with L as in bernoulli_polynomial.
    """
    m, q, a = _integer("m", m, 0), _integer("q", q, 1), _rational("a", a)
    p, s, d = int(a.numerator), int(a.denominator), q + 1
    row, common = _bernoulli_row(d)
    diff = _homogeneous_horner(row, p + (m + 1) * s, s) - _homogeneous_horner(row, p, s)
    return Fraction(diff, common * s**d * d)


class _Series:
    """The truncated power series sum_{k<L} (nums[k] / den) x^k, L = len(nums), den > 0.

    One common denominator keeps a product in integers: the coefficients of
    a * b are sum_i a.nums[i] b.nums[k-i] over a.den b.den. Nothing is
    reduced: a caller builds one Fraction per coefficient it reads.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: list[int], den: int):
        self.nums, self.den = nums, den

    @classmethod
    def from_fractions(cls, values) -> _Series:
        """The series sum_k values[k] x^k, over the lcm of the denominators."""
        den = lcm(*(v.denominator for v in values))
        return cls([v.numerator * (den // v.denominator) for v in values], den)

    @classmethod
    def exp(cls, base: Fraction, length: int) -> _Series:
        """e^{base x} to `length` terms: with base = p/q and N = length - 1,
        x^k has p^k q^{N-k} N!/k! over q^N N!."""
        p, q = base.numerator, base.denominator
        den = q ** (length - 1) * factorial(length - 1)
        nums = [den]
        for k in range(1, length):
            nums.append(nums[-1] * p // (q * k))  # exact
        return cls(nums, den)

    def __mul__(self, other: _Series) -> _Series:
        """The product, truncated at the shorter length; a zero term of self costs nothing."""
        a, b = self.nums, other.nums
        nums = [0] * min(len(a), len(b))
        for i, x in enumerate(a[: len(nums)]):
            if x:
                nums[i:] = map(add, nums[i:], map(mul, repeat(x), b))
        return _Series(nums, self.den * other.den)


def rational_str(x: Fraction | int) -> str:
    """Canonical "p/q" form with an explicit denominator (zero is "0/1")."""
    x = _rational("x", x)
    return f"{x.numerator}/{x.denominator}"
