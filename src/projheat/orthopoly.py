"""Classical orthogonal polynomials and terminating hypergeometric series.

Evaluations are exact (Fractions in, Fraction out) through the finite-sum
definitions, and binary64 through three-term recurrences for float, complex,
or ndarray arguments. Jacobi parameters may be any rationals, including the
negative integers that appear in monopole harmonics; the finite sum stays
well defined there because the generalized binomials vanish structurally.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import DegenerateNormalization, PoleError
from .exactnum import binomial_general, pochhammer

__all__ = [
    "JacobiParams",
    "DiskIndex",
    "jacobi",
    "jacobi_eval",
    "jacobi_values",
    "jacobi_at_one",
    "gauss2f1_terminating",
    "normalized_jacobi_R",
    "disk_polynomial",
    "gegenbauer_eval",
    "gegenbauer_values",
]


@dataclass(frozen=True)
class JacobiParams:
    """Degree and rational parameters of P_k^{(alpha,beta)}."""

    degree: int
    alpha: Fraction | int
    beta: Fraction | int

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("Jacobi degree must be >= 0")


@dataclass(frozen=True)
class DiskIndex:
    """Bidegree (p, q) and parameter gamma of a disk (Zernike) polynomial."""

    p: int
    q: int
    gamma: Fraction | int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError("disk polynomial indices must be >= 0")


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _jacobi_finite_sum(k: int, alpha, beta, x):
    """2^{-k} sum_j C(k+a, j) C(k+b, k-j) (x+1)^j (x-1)^{k-j}.

    Valid for arbitrary rational parameters; x exact or floating.
    """
    exact = _is_exact(x)
    coeffs = [binomial_general(Fraction(alpha) + k, j) * binomial_general(Fraction(beta) + k, k - j)
              for j in range(k + 1)]
    if exact:
        xx = Fraction(x)
        total = Fraction(0)
        for j, c in enumerate(coeffs):
            if c:
                total += c * (xx + 1) ** j * (xx - 1) ** (k - j)
        return total / 2**k
    total = 0.0
    for j, c in enumerate(coeffs):
        if c:
            total = total + float(c) * (x + 1.0) ** j * (x - 1.0) ** (k - j)
    return total / 2.0**k


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
        return _jacobi_finite_sum(k, alpha, beta, x)
    a, b = Fraction(alpha), Fraction(beta)
    neg_int = (a.denominator == 1 and a < 0) or (b.denominator == 1 and b < 0)
    if neg_int and not isinstance(x, np.ndarray):
        # recurrence denominators can vanish there; the finite sum cannot
        return _jacobi_finite_sum(k, alpha, beta, x)
    return jacobi_values(k, float(a), float(b), x)[k]


def jacobi_eval(params: JacobiParams, x):
    """P_k^{(alpha,beta)}(x) for the bundled parameter set."""
    return jacobi(params.degree, params.alpha, params.beta, x)


def jacobi_at_one(params: JacobiParams) -> Fraction:
    """Exact P_k^{(alpha,beta)}(1) = (alpha+1)_k / k!."""
    return pochhammer(Fraction(params.alpha) + 1, params.degree) / factorial(params.degree)


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


def normalized_jacobi_R(k: int, alpha, beta, u):
    """R_k^{(alpha,beta)}(u) = P_k^{(alpha,beta)}(u) / P_k^{(alpha,beta)}(1)."""
    at_one = jacobi_at_one(JacobiParams(k, alpha, beta))
    if at_one == 0:
        raise DegenerateNormalization(f"P_{k}^{({alpha},{beta})}(1) = 0")
    value = jacobi(k, alpha, beta, u)
    return value / at_one if _is_exact(u) else value / float(at_one)


def disk_polynomial(idx: DiskIndex, xi: complex) -> complex:
    """Disk (Zernike) polynomial R_{p,q}^{gamma}(xi) on the closed unit disk.

    The angular factor |xi|^{|p-q|} e^{i(p-q) arg xi} is computed as an
    integer power of xi or of its conjugate, so there is no branch to pick.
    At xi = 0 the continuous limit is used: 0 for p != q.
    """
    p, q, gamma = idx.p, idx.q, idx.gamma
    xi = complex(xi)
    if abs(xi) > 1 + 1e-12:
        warnings.warn("disk polynomial evaluated outside the closed unit disk", stacklevel=2)
    if xi == 0:
        if p != q:
            return 0j
        return complex(normalized_jacobi_R(p, gamma, 0, -1.0))
    angular = xi ** (p - q) if p >= q else np.conjugate(xi) ** (q - p)
    radial = normalized_jacobi_R(min(p, q), gamma, abs(p - q), 2.0 * abs(xi) ** 2 - 1.0)
    return complex(angular * radial)


def gegenbauer_eval(k: int, lam, x):
    """C_k^{lambda}(x) by the standard recurrence; x float or ndarray."""
    if k < 0:
        raise ValueError("Gegenbauer degree must be >= 0")
    return gegenbauer_values(k, lam, x)[k]


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
