"""Jacobi and Gegenbauer polynomials and the terminating 2F1 series.

Jacobi evaluations are exact (Fractions in, Fraction out) through the
finite-sum definition, and binary64 through the three-term recurrence for
float, complex, or ndarray arguments. Jacobi parameters may be any
rationals, including the negative integers that appear in monopole
harmonics; there the recurrence denominators can vanish, so binary64
arguments go through the finite sum as well, which stays well defined
because the generalized binomials vanish structurally. The finite-sum
weights are built per (k, alpha, beta) as the (j, c_j) pairs of the nonzero
Fractions. One loop, _finite_sum, sums them on both paths: the Fractions at
an exact x, their floats at a binary64 x. A binary64 x is evaluated by the
cached plan of its (k, alpha, beta), _jacobi_plan, which is the evaluator
itself: a closure over the floats of the nonzero weights at a negative-
integer parameter, or over the recurrence constants of degree k otherwise.
jacobi and the monopole harmonics of ``kernels`` call that evaluator.

The recurrence's constants (_recurrence: alpha + 1, alpha + beta + 2,
alpha^2, beta^2, and s - 1, s (s - 2), c1, c3 of each degree) are built
apart from the values at x (_recurrence_values), and each step applies them
in the order of its formula, so no value depends on where its constants
were built. A plan holds the constants of its degree.
heat.heat_kernel_series builds those of its degree once per call, for all
its pairs, and caches nothing: its degree follows the time, so a cache
keyed by it would grow with every new t. The terminating 2F1 is the
reference the tests check the exact Jacobi path against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import PoleError
from .exactnum import _integer, _rational, binomial_general

__all__ = [
    "jacobi",
    "gauss2f1_terminating",
    "gegenbauer_values",
]


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _finite_sum_coeffs(k: int, alpha: Fraction, beta: Fraction) -> tuple:
    """The nonzero weights c_j = C(k+a, j) C(k+b, k-j), j <= k, as (j, c_j) pairs."""
    weights = ((j, binomial_general(alpha + k, j) * binomial_general(beta + k, k - j))
               for j in range(k + 1))
    return tuple((j, c) for j, c in weights if c)


def _finite_sum(k: int, weights, x, one):
    """2^{-k} sum c_j (x+1)^j (x-1)^{k-j} over the pairs (j, c_j) of weights.

    Valid for arbitrary rational parameters. The one loop of both paths, in
    the arithmetic of ``one``: Fraction weights and x with one = 1 give the
    exact value; float weights with one = 1.0 give binary64 for a float,
    complex or ndarray x, and for a numpy-int x, whose powers then cannot wrap.
    """
    total = x * 0 + (one - one)  # keeps an ndarray's shape when every weight vanishes
    for j, c in weights:
        total = total + c * (x + one) ** j * (x - one) ** (k - j)
    return total / (one + one) ** k


def _recurrence(kmax: int, alpha, beta) -> tuple:
    """The constants of the three-term recurrence for P_0..P_kmax^{(alpha,beta)}.

    (alpha + 1, alpha + beta + 2, alpha^2, beta^2, steps), with one step
    (s - 1, s (s - 2), c1, c3) per degree i = 2..kmax, s = 2i + alpha + beta,
    c1 = 2i (i + alpha + beta)(s - 2) and c3 = 2 (i + alpha - 1)(i + beta - 1) s.
    """
    steps = []
    for i in range(2, kmax + 1):
        s = 2.0 * i + alpha + beta
        steps.append((s - 1.0, s * (s - 2.0), 2.0 * i * (i + alpha + beta) * (s - 2.0),
                      2.0 * (i + alpha - 1.0) * (i + beta - 1.0) * s))
    return alpha + 1.0, alpha + beta + 2.0, alpha * alpha, beta * beta, tuple(steps)


def _recurrence_values(kmax: int, recurrence: tuple, x) -> list:
    """[P_0, ..., P_kmax](x) from the _recurrence constants of degree kmax.

    Step i is ((s - 1)((s (s - 2)) x + alpha^2 - beta^2) P_{i-1} - c3 P_{i-2}) / c1.
    """
    a1, ab2, aa, bb, steps = recurrence
    vals = [x * 0 + 1.0]
    if kmax >= 1:
        v0, v1 = vals[0], a1 + ab2 * (x - 1.0) / 2.0
        vals.append(v1)
        for s1, ss2, c1, c3 in steps:
            v0, v1 = v1, (s1 * (ss2 * x + aa - bb) * v1 - c3 * v0) / c1
            vals.append(v1)
    return vals


def jacobi(k: int, alpha, beta, x):
    """P_k^{(alpha,beta)}(x); exact for exact x, binary64 otherwise."""
    k = _integer("k", k, 0)
    if _is_exact(x):
        weights = _finite_sum_coeffs(k, _rational("alpha", alpha), _rational("beta", beta))
        return _finite_sum(k, weights, Fraction(x), 1)
    return _jacobi_plan(k, alpha, beta)(x)


# jacobi stays a plain function over this cache, so it keeps the __code__
# that perfbench/tracer.py's probes copy. k is a checked Python int, so a
# numpy degree shares the plan of its int and never keys a wrapped one.
@lru_cache(maxsize=256)
def _jacobi_plan(k: int, alpha, beta):
    """The evaluator x -> P_k^{(alpha,beta)}(x) for a float, complex or ndarray x.

    At a negative-integer parameter the recurrence denominators can vanish
    and the finite sum cannot, so it sums the floats of the nonzero weights
    of _finite_sum_coeffs; otherwise it runs the _recurrence constants of
    degree k for the float alpha and beta.
    """
    a, b = _rational("alpha", alpha), _rational("beta", beta)
    if (a.denominator == 1 and a < 0) or (b.denominator == 1 and b < 0):
        weights = tuple((j, float(c)) for j, c in _finite_sum_coeffs(k, a, b))
        return lambda x: _finite_sum(k, weights, x, 1.0)
    recurrence = _recurrence(k, float(a), float(b))
    return lambda x: _recurrence_values(k, recurrence, x)[k]


def gauss2f1_terminating(k: int, b, c, x):
    """Terminating 2F1(-k, b; c; x) = sum_{j<=k} (-k)_j (b)_j / ((c)_j j!) x^j.

    Raises PoleError when (c)_j vanishes for some j <= k while the numerator
    coefficient is still nonzero. Once the numerator dies (b a negative
    integer), remaining terms are zero and a later pole is harmless.
    """
    k = _integer("k", k, 0)
    b, c = _rational("b", b), _rational("c", c)
    exact = _is_exact(x)
    coef = Fraction(1)
    total: object = Fraction(1) if exact else (x * 0 + 1.0)
    xpow = Fraction(1) if exact else (x * 0 + 1.0)
    for j in range(1, k + 1):
        nfac = (-k + j - 1) * (b + j - 1)
        dfac = (c + j - 1) * j
        if dfac == 0:
            if coef * nfac != 0:
                raise PoleError(f"(c)_{j} vanishes for c={c} inside the terminating range")
            break
        coef = coef * nfac / dfac
        if coef == 0:
            break
        xpow = xpow * x
        total = total + (coef * xpow if exact else float(coef) * xpow)
    return total


def gegenbauer_values(kmax: int, lam, x: np.ndarray) -> np.ndarray:
    """Array of C_k^{lambda}(x) for k = 0..kmax, shape (kmax+1,) + x.shape."""
    kmax = _integer("kmax", kmax, 0)
    x = np.asarray(x, dtype=float)
    lam = float(lam)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = 2.0 * lam * x
    for i in range(2, kmax + 1):
        out[i] = (2.0 * x * (i + lam - 1.0) * out[i - 1] - (i + 2.0 * lam - 2.0) * out[i - 2]) / i
    return out
