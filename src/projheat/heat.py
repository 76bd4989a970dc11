"""Heat kernel of the magnetic Laplacian: spectral series and integral form.

Two representations are provided. The spectral series sums
reproducing-kernel terms with Gaussian-in-m weights; the integral form
integrates a Gegenbauer series against the endpoint-substituted weight
(cos u = cos rho sin phi turns (cos^2 rho - cos^2 u)^{2nu-1/2} (-d cos u)
into the smooth (cos rho cos phi)^{4nu} dphi). The inner derivative bracket
(-1/sin u d/du)^{n+2nu} of the lattice theta sum is always realized through
its exact Gegenbauer form, never by numerical differentiation. The
classical nu = 0 integral form differs from the general form at nu = 0
only in its literal constant, so the two constants check each other.

The theta sums, the direct trace and the truncation routine live in the
numpy-free ``theta`` module; this module re-exports them (theta_deriv,
trace_direct, terms_needed), so ``heat`` stays the one import for the whole
heat subsystem.

The two forms are one sum: term m of the integral form, its constant times
the exact phi-integral of (2m+lam) decay(m) C_{2m}^lam, lam = n + 2nu and
decay the Gaussian-in-m weight, is term m of the series (tests/test_heat.py
checks this in exact rationals). So both truncate in one place,
_series_weights, with one sup: by Cauchy-Schwarz on the m-th reproducing
kernel, |K_m(z,w)|^2 <= K_m(z,z) K_m(w,w), a term is at every pair at most
its value on the diagonal. The series cuts at its eps, the integral form at
the default KERNEL_EPS; a KernelEval's error_bound is that tail bound, the
same at every pair. The integral form's quadrature adds nothing to it:
the integrand (cos rho cos phi)^{4nu} G(cos rho sin phi) is a polynomial
in sin^2 phi, of degree 2nu + (terms of G) - 1, so a cosine polynomial of
that degree in 2 phi, and a midpoint rule of more than half that many
nodes integrates it exactly. Rounding error is not included. The series
sum uses math.fsum, the quadrature sum uses np.sum; summation order is
fixed, so results are reproducible for a given numpy.

The rows contract, for every form: z and w are one pair of chart points,
or two complex ndarrays of shape (P, n), one pair per row, all at the one
time t. With rows, value and error_bound are shape-(P,) arrays and
terms_used stays one int. The truncation, the series' Jacobi constants, G
and the midpoint rule are built once for all rows; the rule's order
follows from 2nu and the terms of G alone, and the rows are summed term by
term, so each row's value and bound are bit-identical to the call on that
row's pair alone.

Every form runs one path, _heat_kernel. Its checks come in one order: the
time, the labels, the rows, then each pair in row order with its own
check (an integral form rejects 1 + <z,w> ~ 0 with AntipodalDegenerate);
then an integral form's constant and each pair's scale const
conj(q)^{-2nu}, whose overflow raises Binary64Overflow; then the one
truncation. One packer, _packed, builds the KernelEval of every form.

Everything here is binary64; exact inputs (dimensions, Gamma-quotients)
are computed in integers or rationals and converted once.
"""

from __future__ import annotations

import math
from math import comb, factorial, pi

import numpy as np

from .errors import AntipodalDegenerate, DimensionMismatch, binary64_range
from .kernels import KernelEval, _gamma_ratio, double_angle, point_pair, single_angle
from .orthopoly import _recurrence, _recurrence_values, gegenbauer_values
from .quadrature import midpoint_rule
from .spectrum import SpectralPoint
from .theta import KERNEL_EPS, _gaussian, _require_time, terms_needed, theta_deriv, trace_direct

__all__ = [
    "theta_deriv",
    "heat_kernel_series",
    "heat_kernel_integral",
    "heat_kernel_integral_hi",
    "trace_direct",
    "terms_needed",
]


def _series_weights(n: int, two_nu: int, t: float,
                    eps: float) -> tuple[list[float], list[float], float]:
    """The one truncation of both heat forms: the weights below the cut, and its tail.

    terms_needed cuts on coef(m) comb(m+n-1, m) decay(m) against eps pi^n,
    coef(m) = (2m+2nu+n) Gamma(m+n+2nu)/Gamma(m+2nu+1) and decay(m) the
    Gaussian-in-m weight, each evaluated once per m. comb(m+n-1, m) bounds
    |q^{2nu} P_m^{(n-1,2nu)}(cos 2d)| at every pair, so tail / pi^n bounds
    the truncation of either form at every pair. Returns the series weights
    coef(m) decay(m) and the decay(m) for m < M, and the tail.
    """
    big, decay = two_nu + n, _gaussian(n, two_nu, t)
    weights, decays = [], []

    def bound(m: int) -> float:
        c, gauss = (2 * m + big) * float(_gamma_ratio(n, two_nu, m)), decay(m)
        weights.append(c * gauss)
        decays.append(gauss)
        return c * comb(m + n - 1, m) * gauss

    with binary64_range("a series weight (2m+2nu+n) Gamma(m+n+2nu)/Gamma(m+2nu+1)"):
        bounds, tail = terms_needed(bound, eps * pi**n)
    return weights[:len(bounds)], decays[:len(bounds)], tail


def heat_kernel_series(n: int, two_nu: int, t: float, z, w,
                       eps: float = KERNEL_EPS) -> KernelEval:
    """Spectral-series heat kernel H_nu(t,z,w) with verified truncation < eps.

    The e^{4t(nu^2+n^2/4)} prefactor is folded into each term, so every
    exponent is <= 0. error_bound is the tail bound of _series_weights,
    the same at every pair. z and w are one pair or (P, n) rows, as the
    module docstring states.
    """
    return _heat_kernel(n, two_nu, t, z, w, eps)


def _exact_order(two_nu: int, terms: int) -> int:
    """Fewest midpoint nodes that integrate the bracket of a G of the given terms exactly.

    (cos phi)^{4nu} = (1 - sin^2 phi)^{2nu} and the even G of degree
    2 (terms - 1) make the integrand a polynomial of degree
    K = 2nu + terms - 1 in sin^2 phi = (1 - cos 2 phi) / 2, so a cosine
    polynomial of degree K in 2 phi; the midpoint rule of N nodes on
    [0, pi/2] is exact for it once 2N > K, so N = K // 2 + 1.
    """
    return (two_nu + terms - 1) // 2 + 1


def _bracket_integral(n: int, two_nu: int, weights, cos_rho: np.ndarray, scale) -> np.ndarray:
    """scale * int_0^{pi/2} (cos rho cos phi)^{4nu} G(cos rho sin phi) dphi for each pair.

    G = sum_m weights[m] C_{2m}^{n+2nu}. cos_rho holds one entry per pair,
    in [0, 1], scale one per pair or one for all. The call builds one
    midpoint rule of _exact_order's order, so the quadrature is exact, and
    evaluates every pair on one (pairs x nodes) array.
    """
    phi, wphi = midpoint_rule(_exact_order(two_nu, len(weights)), 0.0, pi / 2)
    c = cos_rho[:, None]
    cvals = gegenbauer_values(2 * (len(weights) - 1), n + two_nu, c * np.sin(phi))
    # summed term by term, not by BLAS, whose order of summation can depend on
    # the row count: so a row sums as a one-pair call does
    g = sum(wm * cm for wm, cm in zip(weights, cvals[0::2]))
    return scale * np.sum(wphi * (c * np.cos(phi)) ** (2 * two_nu) * g, axis=1)


def _pairs(z, w) -> tuple[list, bool]:
    """The (z, w) pairs, and whether z and w came as (P, n) rows.

    z and w are one pair of chart points, or two 2-D ndarrays with one point
    per row and the same number of rows.
    """
    def is_rows(x) -> bool:
        return isinstance(x, np.ndarray) and x.ndim == 2

    rows = is_rows(z) or is_rows(w)
    if rows and not (is_rows(z) and is_rows(w) and len(z) == len(w)):
        raise DimensionMismatch(f"z and w must both be (P, n) arrays of pairs, "
                                f"got shapes {np.shape(z)} and {np.shape(w)}")
    return (list(zip(z, w)) if rows else [(z, w)]), rows


def _packed(rows: bool, values, terms_used: int, bound: float) -> KernelEval:
    """One pair's KernelEval, or with rows shape-(P,) value and error_bound arrays."""
    if rows:
        return KernelEval(value=np.array(values, dtype=complex), terms_used=terms_used,
                          error_bound=np.full(len(values), bound))
    return KernelEval(value=complex(values[0]), terms_used=terms_used, error_bound=bound)


def _heat_kernel(n: int, two_nu: int, t: float, z, w, eps: float,
                 what: str = "", constant=None) -> KernelEval:
    """The series, or given constant(n, 2nu) the integral form const conj(q)^{-2nu} int G.

    Checks in the module docstring's order; an overflow of the constant or
    of a pair's scale raises Binary64Overflow naming what. G holds the terms
    the series keeps at eps, (2m+n+2nu) decay(m) for m < M.
    """
    integral = constant is not None
    _require_time(t)
    pt = SpectralPoint(n, two_nu, 0)  # rejects n < 1 and 2nu < 0
    n, two_nu = pt.n, pt.two_nu  # Python ints, so the weights never run in a numpy int
    pairs, rows = _pairs(z, w)
    geometry = []
    for a, b in pairs:
        c2, q = point_pair(n, a, b)
        if integral and c2 < 1e-20:
            raise AntipodalDegenerate("1 + <z,w> ~ 0: integral prefactor degenerates")
        geometry.append((c2, q))
    if integral:
        with binary64_range(what):
            const = constant(n, two_nu)
            with np.errstate(all="ignore"):  # an inf or nan scale raises below, typed
                scale = np.array([const * np.conjugate(q) ** (-two_nu) for _, q in geometry])
            if not (math.isfinite(const) and np.isfinite(scale).all()):
                raise OverflowError

    weights, decays, tail = _series_weights(n, two_nu, t, eps)
    if integral:
        values = _bracket_integral(
            n, two_nu, [(2 * m + n + two_nu) * gauss for m, gauss in enumerate(decays)],
            np.array([single_angle(c2) for c2, _ in geometry]), scale)
    else:
        kmax = len(weights) - 1
        recurrence = _recurrence(kmax, n - 1, two_nu)  # one set of constants for every pair
        values = []
        for c2, q in geometry:
            # cos 2d as a Python float, whose operations round as numpy's float64 do
            pvals = _recurrence_values(kmax, recurrence, float(double_angle(c2)))
            inner = math.fsum(wm * pm for wm, pm in zip(weights, pvals))
            values.append(complex(q**two_nu / pi**n * inner))
    return _packed(rows, values, len(decays), tail / pi**n)


def heat_kernel_integral(n: int, two_nu: int, t: float, z, w) -> KernelEval:
    """Integral-representation heat kernel, with the exact Gegenbauer bracket.

    H_nu(t,z,w) = (2 Gamma(n+2nu) 4^{2nu} (2nu)! / ((4nu)! pi^{n+1}))
                  * conj(q)^{-2nu}
                  * int_0^{pi/2} (cos rho cos phi)^{4nu} G(u(phi)) dphi
    with G the weighted Gegenbauer sum and e^{4t(nu^2+n^2/4)} folded into G.
    The constant carries the 1/Gamma(1/2) that the Jacobi-to-Gegenbauer
    integral representation requires (cross-checked against the series).
    Term m of G integrates to term m of the series, so G keeps the terms
    heat_kernel_series keeps at its default eps, KERNEL_EPS, and error_bound
    is that call's bound. The integrand is a cosine polynomial of known
    degree, so the one midpoint rule built, of _exact_order's order,
    integrates it exactly; rounding is not included. z and w are one pair
    or (P, n) rows, as the module docstring states.
    """
    # at 2nu = 85 the product runs to inf before the quotient brings it to ~3.3
    return _heat_kernel(n, two_nu, t, z, w, KERNEL_EPS,
                        "the integral-form constant 2 Gamma(n+2nu) 4^{2nu} (2nu)!/(4nu)! "
                        "times conj(q)^{-2nu}",
                        lambda n, two_nu: 2.0
                        * factorial(n + two_nu - 1)
                        * 4.0**two_nu
                        * factorial(two_nu)
                        / (factorial(2 * two_nu) * pi ** (n + 1)))


def heat_kernel_integral_hi(n: int, t: float, z, w) -> KernelEval:
    """The nu = 0 integral representation with its classical constant.

    H_0 = e^{n^2 t} / (2^{n-2} pi^{n+1}) int_rho^{pi/2}
          (cos^2 rho - cos^2 u)^{-1/2} (-1/sin u d/du)^n Theta_{n+1} (-d cos u),
    with the derivative bracket replaced by 2^{n-1} (n-1)! times the
    Gegenbauer sum. Kept as a literal transcription so it is a genuinely
    independent check of the general-nu constant at nu = 0. Its one
    midpoint rule is exact, as in heat_kernel_integral. z and w are one
    pair or (P, n) rows, as the module docstring states.
    """
    # weight (cos^2 rho - cos^2 u)^{-1/2} * sin u du == dphi exactly
    return _heat_kernel(n, 0, t, z, w, KERNEL_EPS,
                        "the classical constant 2^{n-1} (n-1)!/(2^{n-2} pi^{n+1})",
                        lambda n, _: (1.0 / (2.0 ** (n - 2) * pi ** (n + 1)))
                        * 2.0 ** (n - 1) * factorial(n - 1))
