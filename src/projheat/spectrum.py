"""Spectrum of the magnetic Laplacian on P^n(C): eigenvalues and multiplicities.

Eigenspaces are indexed by (n, 2*nu, m); the eigenvalue is
beta_m = -4(m+nu)(m+nu+n) + 4 nu^2 and the multiplicity is an odd polynomial
in r = m + nu + n/2 whose even-part coefficient list (gamma for odd n, tau
for even n) drives the heat-coefficient recurrences. Everything here is
exact. Every root of that product is a half-integer, so in R = 2r =
2m + 2nu + n it expands to one cached row of integers (_poly_dimension_row);
the poly form of the dimension and decompose_multiplicity's Fraction
coefficients are both read from that row.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import NonIntegerDimension

__all__ = [
    "SpectralPoint",
    "DecompositionPoly",
    "eigenvalue_beta",
    "dimension_gamma_form",
    "dimension_product_form",
    "dimension_poly_form",
    "decompose_multiplicity",
    "spherical_harmonic_dims",
]


def _integer(name: str, value) -> int:
    """The one integer rule for a label: operator.index(value) (numpy's too), else ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _rational(name: str, value) -> Fraction:
    """The one rule for a rational label such as nu: its exact value, else ValueError.

    A numpy real scalar reads as its Python value; a non-finite or non-real
    value is a ValueError naming the label.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational):
        value = float(value)
    if isinstance(value, numbers.Number):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):  # complex, NaN, infinity
            pass
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class SpectralPoint:
    """Eigenspace label: complex dimension n, 2*nu, level m, each an integer (numpy's too).

    Each is stored as a Python int, so the exact formulas never run in int64.
    """

    n: int
    two_nu: int
    m: int

    def __post_init__(self) -> None:
        for name in ("n", "two_nu", "m"):
            value = getattr(self, name)
            if type(value) is not int:
                object.__setattr__(self, name, _integer(name, value))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.two_nu < 0:
            raise ValueError("2*nu must be >= 0")
        if self.m < 0:
            raise ValueError("m must be >= 0")

    @property
    def nu(self) -> Fraction:
        return Fraction(self.two_nu, 2)

    @property
    def r(self) -> Fraction:
        """The shifted level r = m + nu + n/2."""
        return self.m + Fraction(self.two_nu + self.n, 2)


@dataclass(frozen=True)
class DecompositionPoly:
    """Coefficients of the multiplicity product as sum_p coeffs[p] r^{2p}."""

    parity: str  # "odd" | "even", the parity of n
    coeffs: tuple[Fraction, ...]


def eigenvalue_beta(pt: SpectralPoint) -> Fraction:
    """Eigenvalue beta_m = -4(m+nu)(m+nu+n) + 4 nu^2 of the m-th eigenspace."""
    s = pt.m + pt.nu
    return -4 * s * (s + pt.n) + 4 * pt.nu * pt.nu


def _dimension(num: int, den: int, n: int, two_nu: int, m: int) -> int:
    """num/den when it is a positive integer, else NonIntegerDimension; only the error builds a Fraction."""
    dim, rest = divmod(num, den)
    if rest or dim <= 0:
        raise NonIntegerDimension(f"dimension {Fraction(num, den)} at SpectralPoint(n={n!r}, "
                                  f"two_nu={two_nu!r}, m={m!r}) is not a positive integer")
    return dim


def dimension_gamma_form(pt: SpectralPoint) -> int:
    """dim A_m^nu via the Gamma-quotient formula (all arguments integers)."""
    n, tn, m = pt.n, pt.two_nu, pt.m
    num = (2 * m + n + tn) * factorial(m + n - 1) * factorial(m + n + tn - 1)
    den = n * factorial(n - 1) ** 2 * factorial(m) * factorial(m + tn)
    return _dimension(num, den, n, tn, m)


def _product_dimension(n: int, two_nu: int, m: int) -> int:
    """The product form in integers: exact division, else NonIntegerDimension."""
    num = 2 * m + n + two_nu
    for j in range(1, n):
        num *= (m + j) * (m + two_nu + j)
    den = factorial(n) * factorial(n - 1)
    return _dimension(num, den, n, two_nu, m)


def dimension_product_form(pt: SpectralPoint) -> int:
    """dim A_m^nu via the product form (2m+n+2nu)/(n!(n-1)!) prod (m+j)(m+2nu+j)."""
    return _product_dimension(pt.n, pt.two_nu, pt.m)


def dimension_poly_form(pt: SpectralPoint) -> int:
    """dim A_m^nu via the parity decomposition: (2/(n!(n-1)!)) sum c_p r^{2p+1}.

    With R = 2r = 2m + 2nu + n this is R sum_p A_p R^{2p} / D in integers
    (_poly_dimension_row), summed by _poly_numerator.
    """
    row, den = _poly_dimension_row(pt.n, pt.two_nu)
    return _dimension(_poly_numerator(row, 2 * pt.m + pt.two_nu + pt.n), den,
                      pt.n, pt.two_nu, pt.m)


def _poly_numerator(row: tuple[int, ...], big_r: int) -> int:
    """R sum_p row[p] R^{2p}, by Horner's rule in R^2."""
    big_r2, acc = big_r * big_r, 0
    for a in reversed(row):
        acc = acc * big_r2 + a
    return big_r * acc


def _poly_mul_linear(coeffs: list[int], root: int) -> list[int]:
    """Multiply an integer coefficient list (ascending powers of x) by (x - root)."""
    out = [0] * (len(coeffs) + 1)
    for i, ci in enumerate(coeffs):
        out[i + 1] += ci
        out[i] -= ci * root
    return out


@lru_cache(maxsize=None)
def _poly_dimension_row(n: int, two_nu: int) -> tuple[tuple[int, ...], int]:
    """Integers A_p and D = 4^{n-1} n! (n-1)!, so that dim A_m^nu = R sum_p A_p R^{2p} / D.

    sum_p A_p R^{2p} = 4^{n-1} prod_{j=1}^{n-1} (r - n/2 - nu + j)(r - n/2 + nu + j)
    = prod_j (R - n - 2nu + 2j)(R - n + 2nu + 2j), expanded over its integer
    roots n +- 2nu - 2j, so the poly form shares no step with the other two
    formulas. The expansion is cross-checked against the paired-root
    factorization used by the trace proof, a product over the roots (2 rho)^2
    in R^2.
    """
    full = [1]
    for j in range(1, n):
        full = _poly_mul_linear(full, n + two_nu - 2 * j)
        full = _poly_mul_linear(full, n - two_nu - 2 * j)
    if any(full[1::2]):
        raise AssertionError("multiplicity product is not even in r")
    row = tuple(full[::2])

    if n % 2 == 1:
        halves = (n - 1) // 2
        roots = [two_nu + 2 * i + 1 for i in range(halves)]
        roots += [1 - two_nu + 2 * i for i in range(halves)]
    else:
        roots = [two_nu + 2 * i for i in range(n // 2)]
        roots += [2 - two_nu + 2 * i for i in range(n // 2 - 1)]
    paired = [1]  # ascending powers of R^2
    for root in roots:
        paired = _poly_mul_linear(paired, root * root)
    if tuple(paired) != row:
        raise AssertionError("paired-root factorization disagrees with direct expansion")
    return row, 4 ** (n - 1) * factorial(n) * factorial(n - 1)


def decompose_multiplicity(n: int, nu: Fraction | int) -> DecompositionPoly:
    """Expand prod_{j=1}^{n-1} (r - n/2 - nu + j)(r - n/2 + nu + j) in powers r^{2p}.

    Returns the gamma (n odd) or tau (n even) coefficient list,
    gamma_p = A_p / 4^{n-1-p} from _poly_dimension_row's integer row, which
    is verified against the paired-root factorization. Half-integer nu is
    supported.
    """
    n = _integer("n", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    two_nu = _rational("nu", nu) * 2
    if two_nu.denominator != 1 or two_nu < 0:
        raise ValueError("2*nu must be a non-negative integer")
    row, _ = _poly_dimension_row(n, int(two_nu))
    coeffs = tuple(Fraction(a, 4 ** (n - 1 - p)) for p, a in enumerate(row))
    return DecompositionPoly(parity="odd" if n % 2 else "even", coeffs=coeffs)


def spherical_harmonic_dims(n: int, p: int, q: int) -> tuple[int, int]:
    """(delta, d): dims of bidegree-(p,q) polynomials and spherical harmonics."""
    if n < 1 or p < 0 or q < 0:
        raise ValueError("need n >= 1 and p, q >= 0")

    def delta(pp: int, qq: int) -> int:
        if pp < 0 or qq < 0:
            return 0
        return comb(pp + n - 1, n - 1) * comb(qq + n - 1, n - 1)

    dlt = delta(p, q)
    if p == 0 or q == 0:
        return dlt, dlt
    return dlt, dlt - delta(p - 1, q - 1)
