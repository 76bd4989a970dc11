"""Jacobi and Gegenbauer polynomials and the terminating 2F1 series.

Jacobi evaluations are exact (Fractions in, Fraction out) through the
finite-sum definition, and binary64 through the three-term recurrence for
float, complex, or ndarray arguments. Jacobi parameters may be any
rationals, including the negative integers that appear in monopole
harmonics; there the recurrence denominators can vanish, so binary64
arguments go through the finite sum as well, which stays well defined
because the generalized binomials vanish structurally. The finite-sum
weights are built once per (k, alpha, beta), as Fractions and, next to them,
in the binary64 plan of that (k, alpha, beta): the floats of the nonzero
weights, or the float parameters for the recurrence. jacobi and
kernels.monopole_basis evaluate a binary64 x through the one plan reader,
_jacobi_float. The terminating 2F1 is the reference the tests check the
exact Jacobi path against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import PoleError
from .exactnum import binomial_general

__all__ = [
    "jacobi",
    "jacobi_values",
    "gauss2f1_terminating",
    "gegenbauer_values",
]


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


@lru_cache(maxsize=128)
def _finite_sum_coeffs(k: int, alpha: Fraction, beta: Fraction) -> tuple[Fraction, ...]:
    """C(k+a, j) C(k+b, k-j) for j = 0..k, the weights of _jacobi_finite_sum."""
    return tuple(binomial_general(alpha + k, j) * binomial_general(beta + k, k - j)
                 for j in range(k + 1))


def _jacobi_finite_sum(k: int, alpha: Fraction, beta: Fraction, x) -> Fraction:
    """2^{-k} sum_j C(k+a, j) C(k+b, k-j) (x+1)^j (x-1)^{k-j} for exact x.

    Valid for arbitrary rational parameters.
    """
    xx = Fraction(x)
    total = Fraction(0)
    for j, c in enumerate(_finite_sum_coeffs(k, alpha, beta)):
        if c:
            total += c * (xx + 1) ** j * (xx - 1) ** (k - j)
    return total / 2**k


def jacobi_values(kmax: int, alpha, beta, x) -> list:
    """[P_0, ..., P_kmax]^{(alpha,beta)}(x) by the three-term recurrence.

    x may be float, complex, or ndarray. The recurrence denominators vanish
    for some negative integer parameters; jacobi() avoids those.
    """
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


def jacobi(k: int, alpha, beta, x):
    """P_k^{(alpha,beta)}(x); exact for exact x, binary64 otherwise."""
    if k < 0:
        raise ValueError("Jacobi degree must be >= 0")
    if _is_exact(x):
        return _jacobi_finite_sum(k, Fraction(alpha), Fraction(beta), x)
    return _jacobi_float(k, _jacobi_plan(k, alpha, beta), x)


# jacobi stays a plain function over this cache, so it keeps the __code__
# that perfbench/tracer.py's probes copy.
@lru_cache(maxsize=256)
def _jacobi_plan(k: int, alpha, beta) -> tuple[tuple[tuple[int, float], ...] | None, float, float]:
    """How P_k^{(alpha,beta)} is evaluated at a binary64 x: (weights, alpha, beta).

    At a negative-integer parameter the recurrence denominators can vanish
    and the finite sum cannot, so weights holds (j, float(c)) for the
    nonzero weights c of _finite_sum_coeffs; otherwise it is None and the
    float alpha and beta go to jacobi_values.
    """
    a, b = Fraction(alpha), Fraction(beta)
    weights = None
    if (a.denominator == 1 and a < 0) or (b.denominator == 1 and b < 0):
        weights = tuple((j, float(c)) for j, c in enumerate(_finite_sum_coeffs(k, a, b)) if c)
    return weights, float(a), float(b)


def _jacobi_float(k: int, plan, x):
    """P_k(x) for a float, complex or ndarray x, by a _jacobi_plan of degree k."""
    weights, alpha, beta = plan
    if weights is None:
        return jacobi_values(k, alpha, beta, x)[k]
    total = x * 0 + 0.0  # keeps an ndarray's shape when every weight vanishes
    for j, c in weights:
        total = total + c * (x + 1.0) ** j * (x - 1.0) ** (k - j)
    return total / 2.0**k


def gauss2f1_terminating(k: int, b, c, x):
    """Terminating 2F1(-k, b; c; x) = sum_{j<=k} (-k)_j (b)_j / ((c)_j j!) x^j.

    Raises PoleError when (c)_j vanishes for some j <= k while the numerator
    coefficient is still nonzero. Once the numerator dies (b a negative
    integer), remaining terms are zero and a later pole is harmless.
    """
    if k < 0:
        raise ValueError("termination order must be >= 0")
    b, c = Fraction(b), Fraction(c)
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
    x = np.asarray(x, dtype=float)
    lam = float(lam)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = 2.0 * lam * x
    for i in range(2, kmax + 1):
        out[i] = (2.0 * x * (i + lam - 1.0) * out[i - 1] - (i + 2.0 * lam - 2.0) * out[i - 2]) / i
    return out
