"""Fubini-Study geometry, reproducing kernels, and the n=1 monopole oracle.

Convention: the Hermitian pairing herm(z, w) = sum z_j conj(w_j) is linear
in its first slot, so the kernel phase base (1 + herm(z, w)) is holomorphic
in z and the half-integer-nu power is taken as an integer power of a single
complex number (no branch ambiguity).

The monopole harmonics of the n=1 chart are orthonormal against dmu_1/pi
(the n=1 volume-normalized measure); the Zaremba sum therefore carries an
explicit 1/pi, calibrated once against the closed form at m=0, z=w=0 and
required to be uniform across all (m, nu) by the tests.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import acos, factorial, isfinite, nan, pi, prod, sqrt

import numpy as np

from .errors import Binary64Overflow, DimensionMismatch, IndexOutOfRange, binary64_range
from .exactnum import _integer
from .orthopoly import _jacobi_plan, jacobi
from .quadrature import radial_mu1_rule
from .spectrum import SpectralPoint

__all__ = [
    "ProjPoint",
    "KernelEval",
    "as_point",
    "herm",
    "point_pair",
    "single_angle",
    "double_angle",
    "fs_distance",
    "reproducing_kernel",
    "monopole_basis",
    "zaremba_sum_n1",
    "monopole_norm_sq",
    "kernel_diagonal_volume_check",
]

ProjPoint = tuple[complex, ...]


@dataclass(frozen=True, eq=False)
class KernelEval:
    """Kernel value with truncation metadata (0 terms for closed forms).

    On one pair: a complex value, an int terms_used, a float error_bound.
    A heat kernel given (P, n) rows of pairs, all at its one time, holds
    shape-(P,) arrays in value (complex) and error_bound (float), one entry
    per row; terms_used stays one int.

    Results compare by identity and hash by id (eq=False): an array field
    has no single truth value and no hash, so field-wise == and hash() would
    raise on row results. Compare the fields to compare values.
    """

    value: complex
    terms_used: int
    error_bound: float


def as_point(coords) -> ProjPoint:
    """Coerce a scalar or sequence of complex numbers to a chart point of finite coordinates.

    An ndarray is read through tolist(), so its coordinates arrive as Python
    numbers, whose complex() is the same value as a numpy scalar's.
    """
    if isinstance(coords, np.ndarray):
        coords = coords.tolist()
    point = ((complex(coords),) if isinstance(coords, (complex, float, int, np.number))
             else tuple(map(complex, coords)))
    if not all(map(cmath.isfinite, point)):
        raise ValueError(f"non-finite coordinate in the point {point}")
    return point


def _finite(z):
    """The n=1 coordinate z, a complex scalar or ndarray, if finite; else as_point's ValueError."""
    if not (np.isfinite(z).all() if isinstance(z, np.ndarray) else cmath.isfinite(z)):
        raise ValueError(f"non-finite coordinate in the point {z}")
    return z


def herm(z: ProjPoint, w: ProjPoint) -> complex:
    """Hermitian pairing sum z_j conj(w_j), linear in the first slot.

    Summed left to right from 0 in Python complex, whose products and sums
    round as numpy's complex128 scalars do.
    """
    if len(z) != len(w):
        raise DimensionMismatch(f"points of dimension {len(z)} and {len(w)}")
    total = 0
    for a, b in zip(z, w):
        total += a * b.conjugate()
    return total


def point_pair(n: int, z, w) -> tuple[np.float64, np.complex128]:
    """(cos^2 d_FS, q) for two chart points, checked to have dimension n.

    cos^2 d_FS = |1+<z,w>|^2 / ((1+|z|^2)(1+|w|^2)) and
    q = (1+<z,w>) / sqrt((1+|z|^2)(1+|w|^2)), so |q| = cos d_FS.

    The pairings are Python complex (herm). cos^2 d_FS is computed in Python
    floats, whose abs, ** and / round as numpy's scalar operations do; q is
    one numpy complex128 1+<z,w> over a Python float. Both results are numpy
    scalars. Where the coordinates square past binary64 and cos^2 d_FS is not
    finite, raises Binary64Overflow, with no warning; a finite cos^2 d_FS has
    a finite |1+<z,w>|, so q is finite too.
    """
    z, w = as_point(z), as_point(w)
    if len(z) != n or len(w) != n:
        raise DimensionMismatch(f"expected dimension {n}, got {len(z)} and {len(w)}")
    az, aw, num = 1.0 + herm(z, z).real, 1.0 + herm(w, w).real, 1.0 + herm(z, w)
    try:
        c2 = abs(num) ** 2 / (az * aw)
    except OverflowError:  # Python's abs and ** raise where numpy's would warn
        c2 = nan
    if not isfinite(c2):
        raise Binary64Overflow("the pair's cos^2 d_FS exceeds the binary64 range")
    return np.float64(c2), np.complex128(num) / sqrt(az * aw)


def single_angle(c2) -> float:
    """cos d = sqrt(c2) from c2 = cos^2 d, clipped to at most 1."""
    return sqrt(min(1.0, c2))


def double_angle(c2) -> float:
    """cos 2d = 2 cos^2 d - 1 from the scalar c2 = cos^2 d, clipped to [-1, 1].

    c2 is one number, as point_pair returns it, not an array. The bounds are
    floats, so a clipped value is a float and jacobi takes its binary64 path.
    """
    return min(max(2.0 * c2 - 1.0, -1.0), 1.0)


def fs_distance(z, w) -> float:
    """Fubini-Study distance in [0, pi/2]: cos^2 d = |1+<z,w>|^2 / ((1+|z|^2)(1+|w|^2))."""
    z = as_point(z)
    return acos(single_angle(point_pair(len(z), z, w)[0]))


def reproducing_kernel(n: int, two_nu: int, m: int, z, w) -> KernelEval:
    """Closed-form reproducing kernel K_{nu,m}(z,w) of the m-th eigenspace.

    ((2m+2nu+n) Gamma(m+n+2nu) / (pi^n Gamma(m+2nu+1))) q^{2nu}
    P_m^{(n-1,2nu)}(cos 2 d_FS), with q from point_pair.
    """
    pt = SpectralPoint(n, two_nu, m)  # rejects n < 1, 2nu < 0, m < 0
    n, two_nu, m = pt.n, pt.two_nu, pt.m
    c2, q = point_pair(n, z, w)
    value = _kernel_prefactor(n, two_nu, m) * q**two_nu * jacobi(m, n - 1, two_nu, double_angle(c2))
    return KernelEval(value=complex(value), terms_used=0, error_bound=0.0)


@lru_cache(maxsize=256)
def _kernel_prefactor(n: int, two_nu: int, m: int) -> float:
    """(2m+2nu+n) Gamma(m+n+2nu) / (pi^n Gamma(m+2nu+1)) of a checked (n, 2nu, m)."""
    with binary64_range("the kernel prefactor (2m+2nu+n) Gamma(m+n+2nu)/Gamma(m+2nu+1)/pi^n"):
        return (2 * m + two_nu + n) * float(_gamma_ratio(n, two_nu, m)) / pi**n


def _gamma_ratio(n: int, two_nu: int, m: int) -> int:
    """Gamma(m+n+2nu)/Gamma(m+2nu+1) = (m+2nu+1)_{n-1}, one integer product of Python ints."""
    return prod(range(m + two_nu + 1, m + two_nu + n))


def monopole_basis(two_nu: int, m: int, k: int,
                   z: complex | np.ndarray) -> complex | np.ndarray:
    """Monopole harmonic Phi_k^{nu,m}(z) on the n=1 chart, -m <= k <= 2nu+m.

    z is a complex scalar, or an ndarray evaluated elementwise (complex
    result of the same shape). Negative k is the literal z^k; the Jacobi
    factor P_m^{(k,2nu-k)} carries a structural zero of order |k| at z = 0,
    so the product is regular. The value is the k entry of _harmonic_row,
    whose row holds only that entry; an ndarray's zeros take the value at
    z = 0 here, so the row never sees one.
    """
    two_nu, m, harmonics = _harmonic_row_constants(two_nu, m)
    k = _integer("k", k)
    if not -m <= k <= two_nu + m:
        raise IndexOutOfRange(f"k={k} outside [{-m}, {two_nu + m}]")
    if isinstance(z, np.ndarray):
        z = _finite(z.astype(complex))
        origin = z == 0
        if origin.any():
            inner = monopole_basis(two_nu, m, k, np.where(origin, 1.0, z))
            return np.where(origin, harmonics[k + m][2], inner)
    else:
        z = _finite(complex(z))
    return _harmonic_row(two_nu, m, harmonics[k + m:k + m + 1], z)[0]


# monopole_basis stays a plain function over this cache, so it keeps the
# __code__ that perfbench/tracer.py's probes copy.
@lru_cache(maxsize=256, typed=True)
def _harmonic_row_constants(two_nu: int, m: int) -> tuple[int, int, tuple]:
    """The checked (2nu, m) as Python ints, and (k, norm, value at z = 0, the
    binary64 evaluator of the Jacobi factor P_m^{(k,2nu-k)}) of each Phi_k^{nu,m},
    k = -m..2nu+m."""
    pt = SpectralPoint(1, two_nu, m)  # rejects 2nu < 0 and m < 0
    two_nu, m = pt.two_nu, pt.m
    harmonics = []
    for k in range(-m, two_nu + m + 1):
        norm = sqrt(
            (two_nu + 2 * m + 1)
            * factorial(two_nu + m)
            * factorial(m)
            / (factorial(m + k) * factorial(two_nu + m - k))
        )
        # the value at z = 0: P_m^{(k,2nu-k)}(1) = (k+1)_m/m! vanishes for -m <= k < 0
        harmonics.append((k, norm, complex(norm) if k == 0 else 0j, _jacobi_plan(m, k, two_nu - k)))
    return two_nu, m, tuple(harmonics)


def _harmonic_row(two_nu: int, m: int, harmonics: tuple, z) -> list:
    """[Phi_k^{nu,m}(z) for the entries (k, norm, value at 0, Jacobi factor) of harmonics].

    harmonics is _harmonic_row_constants' tuple, or a slice of it. z is one
    complex, or a complex ndarray without zeros, evaluated elementwise.
    |z|^2, s = (1-|z|^2)/(1+|z|^2) and the base (1+|z|^2)^{-nu} are computed
    once for the row, and each Phi_k = norm base z^k P_m^{(k,2nu-k)}(s) is
    multiplied left to right in that order: the one Phi_k formula, of
    monopole_basis and of zaremba_sum_n1's rows.
    """
    if not isinstance(z, np.ndarray) and z == 0:
        return [at_origin for _, _, at_origin, _ in harmonics]
    zz = (z * z.conjugate()).real
    s = (1.0 - zz) / (1.0 + zz)
    base = (1.0 + zz) ** (-two_nu / 2.0)
    return [norm * base * z**k * factor(s) for k, norm, _, factor in harmonics]


def zaremba_sum_n1(two_nu: int, m: int, z: complex, w: complex) -> complex:
    """Orthonormal-basis expansion sum_k Phi_k(z) conj(Phi_k(w)) / pi.

    The 1/pi converts the dmu_1/pi orthonormality of the monopole harmonics
    to the measure convention of the closed-form kernel; it is pinned by the
    m=0, z=w=0 diagonal value (2nu+1)/pi.

    z and w are complex scalars. Every Phi_k of (nu, m) is evaluated at z in
    one row and at w in one row (_harmonic_row), each entry the value
    monopole_basis gives. The products are summed in numpy complex128 from
    0j, k ascending, and the total divided by pi as a numpy scalar, so the
    result keeps the bits of the per-k monopole_basis loop.
    """
    two_nu, m, harmonics = _harmonic_row_constants(two_nu, m)
    total = 0j
    for a, b in zip(_harmonic_row(two_nu, m, harmonics, _finite(complex(z))),
                    _harmonic_row(two_nu, m, harmonics, _finite(complex(w)))):
        total += a * np.conjugate(b)
    return total / pi


def monopole_norm_sq(two_nu: int, m: int, k: int, nr: int = 400) -> float:
    """Numerical ||Phi_k^{nu,m}||^2 against dmu_1/pi (radial Gauss-Legendre).

    |Phi_k| depends only on |z|, so the angular integral is exact; Phi_k is
    evaluated on all nr radii in one call.
    """
    rho, wgt = radial_mu1_rule(nr)
    vals = np.abs(monopole_basis(two_nu, m, k, rho)) ** 2
    return float(np.sum(vals * wgt) / pi)


def kernel_diagonal_volume_check(n: int, two_nu: int, m: int) -> Fraction:
    """Exact K_{nu,m}(z,z) * Vol(P^n) with Vol = pi^n/n!; the pi^n cancels.

    Equals (2m+2nu+n) Gamma(m+n+2nu) (n)_m / (n! Gamma(m+2nu+1) m!), which the
    tests require to match the eigenspace dimension exactly.
    """
    pt = SpectralPoint(n, two_nu, m)  # rejects n < 1, 2nu < 0, m < 0
    n, two_nu, m = pt.n, pt.two_nu, pt.m  # Python ints, so the products never run in int64
    # (2m+2nu+n) (m+2nu+1)_{n-1} (n)_m over m! n!, as one integer product
    num = (2 * m + two_nu + n) * _gamma_ratio(n, two_nu, m) * prod(range(n, n + m))
    return Fraction(num, factorial(m) * factorial(n))
