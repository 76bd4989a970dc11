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

Both sequences are memoized in append-only module lists that the two
functions grow on demand. Each step reads the list length once and stores
its entry with a slice assignment at that index, so a racing grower that
stored it first is overwritten by the same value, no list grows past the
index asked for, and no lock is needed.
"""

from __future__ import annotations

from fractions import Fraction
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


_STANDARD: list[Fraction] = [Fraction(1)]  # B_0, B_1, ...
_THETA2: list[Fraction] = []


def bernoulli_number(d: int) -> Fraction:
    """Standard Bernoulli number B_d (convention B_1 = -1/2)."""
    if d < 0:
        raise ValueError("Bernoulli index must be >= 0")
    while (m := len(_STANDARD)) <= d:
        # defining recursion: sum_{k=0}^{m} C(m+1, k) B_k = 0
        acc = Fraction(0)
        for k, bk in enumerate(_STANDARD[:m]):
            if bk:
                acc += comb(m + 1, k) * bk
        _STANDARD[m:m + 1] = [-acc / (m + 1)]
    return _STANDARD[d]


def bernoulli_polynomial(d: int, x: Fraction | int) -> Fraction:
    """Exact value of the Bernoulli polynomial B_d(x) = sum C(d,k) B_k x^{d-k}.

    With x = p/q and L the lcm of the denominators of B_0..B_d, the sum is
    the integer sum_k C(d,k) (L B_k) p^{d-k} q^k over L q^d, built by Horner's
    rule in p; only the final quotient is a Fraction.
    """
    if d < 0:
        raise ValueError("Bernoulli index must be >= 0")
    bernoulli_number(d)  # grow B_0..B_d once
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    coeffs = _STANDARD[:d + 1]
    common = lcm(*(bk.denominator for bk in coeffs))
    acc, q_k = 0, 1
    for k, bk in enumerate(coeffs):
        acc *= p
        if bk:
            acc += comb(d, k) * bk.numerator * (common // bk.denominator) * q_k
        q_k *= q
    return Fraction(acc, common * q**d)


def theta2_series_coefficient(d: int) -> Fraction:
    """Rescaled sequence ((-1)^d/(d+1)) (1 - 2^{-2d-1}) B_{2d+2}.

    Distinct from bernoulli_number on purpose; the literature overloads the
    symbol B_d for both. Satisfies B_{2(d+1)}(1/2) = (-1)^{d+1} (d+1) * value.
    """
    if d < 0:
        raise ValueError("index must be >= 0")
    bernoulli_number(2 * d + 2)
    while (j := len(_THETA2)) <= d:
        scale = Fraction((-1) ** j, j + 1) * (1 - Fraction(1, 2 ** (2 * j + 1)))
        _THETA2[j:j + 1] = [scale * _STANDARD[2 * j + 2]]
    return _THETA2[d]


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
