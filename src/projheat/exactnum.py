"""Exact rational arithmetic and the Bernoulli-family sequences.

Every exact scalar in the package is a ``fractions.Fraction``: always in
lowest terms, denominator > 0, zero is 0/1. ``rational_str`` writes one as
"p/q", and ``Fraction`` reads that form back.

Two distinct Bernoulli-type sequences live here and are never mixed up:

* ``bernoulli_number(d)`` -- the standard numbers B_d with the recursion
  convention B_1 = -1/2 (so sum_{k<=d} C(d+1,k) B_k = 0 for d >= 1).
* ``theta2_series_coefficient(d)`` -- the rescaled sequence
  ((-1)^d/(d+1)) (1 - 2^{-2d-1}) B_{2d+2} that appears as the small-time
  Taylor tail of the lattice theta series sum (2j+1) e^{-(j+1/2)^2 t}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

__all__ = [
    "bernoulli_number",
    "bernoulli_polynomial",
    "theta2_series_coefficient",
    "pochhammer",
    "binomial_general",
    "power_sum",
    "rational_str",
]


@lru_cache(maxsize=None)
def bernoulli_number(d: int) -> Fraction:
    """Standard Bernoulli number B_d (convention B_1 = -1/2)."""
    if d < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if d == 0:
        return Fraction(1)
    # defining recursion sum_{k=0}^{d} C(d+1, k) B_k = 0, over k in increasing
    # order so that a cold cache recurses at most two deep; B_k = 0 for odd k > 1
    acc = sum((comb(d + 1, k) * bernoulli_number(k) for k in range(d) if k < 2 or k % 2 == 0),
              Fraction(0))
    return -acc / (d + 1)


def bernoulli_polynomial(d: int, x: Fraction | int) -> Fraction:
    """Exact value of the Bernoulli polynomial B_d(x) = sum C(d,k) B_k x^{d-k}.

    With x = p/q and L the lcm of the denominators of B_0..B_d, the sum is
    the integer sum_k C(d,k) (L B_k) p^{d-k} q^k over L q^d, built by Horner's
    rule in p; only the final quotient is a Fraction.
    """
    if d < 0:
        raise ValueError("Bernoulli index must be >= 0")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    coeffs = [bernoulli_number(k) for k in range(d + 1)]
    common = lcm(*(bk.denominator for bk in coeffs))
    acc, q_k = 0, 1
    for k, bk in enumerate(coeffs):
        acc *= p
        if bk:
            acc += comb(d, k) * bk.numerator * (common // bk.denominator) * q_k
        q_k *= q
    return Fraction(acc, common * q**d)


@lru_cache(maxsize=None)
def theta2_series_coefficient(d: int) -> Fraction:
    """Rescaled sequence ((-1)^d/(d+1)) (1 - 2^{-2d-1}) B_{2d+2}.

    Distinct from bernoulli_number on purpose; the literature overloads the
    symbol B_d for both. Satisfies B_{2(d+1)}(1/2) = (-1)^{d+1} (d+1) * value.
    """
    if d < 0:
        raise ValueError("index must be >= 0")
    scale = Fraction((-1) ** d, d + 1) * (1 - Fraction(1, 2 ** (2 * d + 1)))
    return scale * bernoulli_number(2 * d + 2)


def pochhammer(a: Fraction | int, k: int) -> Fraction:
    """Shifted factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if k < 0:
        raise ValueError("pochhammer order must be >= 0")
    a = Fraction(a)
    out = Fraction(1)
    for j in range(k):
        out *= a + j
        if not out:
            break
    return out


def binomial_general(a: Fraction | int, k: int) -> Fraction:
    """Generalized binomial coefficient a(a-1)...(a-k+1)/k! for any rational a."""
    if k < 0:
        raise ValueError("binomial order must be >= 0")
    a = Fraction(a)
    num = Fraction(1)
    for j in range(k):
        num *= a - j
        if not num:
            return Fraction(0)
    den = 1
    for j in range(2, k + 1):
        den *= j
    return num / den


def power_sum(m: int, q: int, a: Fraction | int) -> Fraction:
    """Exact sum_{k=0}^{m} (k+a)^q via Bernoulli polynomials, q >= 1."""
    if q < 1:
        raise ValueError("exponent q must be >= 1")
    if m < 0:
        raise ValueError("upper limit m must be >= 0")
    a = Fraction(a)
    return (bernoulli_polynomial(q + 1, m + 1 + a) - bernoulli_polynomial(q + 1, a)) / (q + 1)


def rational_str(x: Fraction | int) -> str:
    """Canonical "p/q" form with an explicit denominator (zero is "0/1")."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
