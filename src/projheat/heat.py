"""Heat kernel of the magnetic Laplacian: spectral series and integral form.

Two independent representations are provided. The spectral series sums
reproducing-kernel terms with Gaussian-in-m weights; the integral form
integrates a Gegenbauer series against the endpoint-substituted weight
(cos u = cos rho sin phi turns (cos^2 rho - cos^2 u)^{2nu-1/2} (-d cos u)
into the smooth (cos rho cos phi)^{4nu} dphi). The inner derivative bracket
(-1/sin u d/du)^{n+2nu} of the lattice theta sum is always realized through
its exact Gegenbauer form, never by numerical differentiation. The
classical nu = 0 integral form shares the general form's driver, and only
its literal constant differs, so the two constants check each other.

The theta sums, the direct trace and the truncation routine live in the
numpy-free ``theta`` module; this module re-exports them (theta_deriv,
trace_direct, terms_needed), so ``heat`` stays the one import for the whole
heat subsystem.

All truncations carry geometric tail bounds (Jacobi terms are bounded by
their value at 1, valid for parameters >= 0). A KernelEval's error_bound
is that tail bound. The integral form's quadrature adds nothing to it: the
integrand (cos rho cos phi)^{4nu} G(cos rho sin phi) is a polynomial in
sin^2 phi, of degree 2nu + (terms of G) - 1, so a cosine polynomial of
that degree in 2 phi, and a midpoint rule of more than half that many
nodes integrates it exactly. Rounding error is not included. The series
sum uses math.fsum, the quadrature sum uses np.sum; summation order is
fixed, so results are reproducible for a given numpy.

Both forms build their weights in one truncation loop, _truncated_weights.
Every form takes one time, and also (P, n) arrays of point pairs, which
share it. The series builds its weights once and sums each pair as a
one-pair call does. The integral driver builds one Gegenbauer weight
vector and one midpoint rule, and evaluates every pair on one
(pairs x nodes) array. The rule's order follows from 2nu and the terms of
G alone, not from the pair, so each row's value and bound are
bit-identical to a call on that pair alone. One packer builds the
KernelEval of every form.

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
from .theta import _gaussian, _require_time, terms_needed, theta_deriv, trace_direct

__all__ = [
    "theta_deriv",
    "heat_kernel_series",
    "heat_kernel_integral",
    "heat_kernel_integral_hi",
    "trace_direct",
    "terms_needed",
]


def _truncated_weights(coef, sup, decay, eps: float) -> tuple[list[float], float]:
    """The weights coef(m) decay(m) below the cut verified against eps, and the tail bound.

    The one truncation loop of both heat forms: terms_needed cuts on
    bound(m) = coef(m) sup(m) decay(m), sup(m) bounding the m-th polynomial
    and decay the Gaussian-in-m weight, each evaluated once per m.
    """
    weights = []

    def bound(m: int) -> float:
        c, gauss = coef(m), decay(m)
        weights.append(c * gauss)
        return c * sup(m) * gauss

    bounds, tail = terms_needed(bound, eps)
    return weights[:len(bounds)], tail


def _series_weights(n: int, two_nu: int, t: float, eps: float) -> tuple[list[float], float]:
    """Spectral-series weights (2m+2nu+n) Gamma-ratio e^{t[(2nu)^2+n^2-(2m+2nu+n)^2]}.

    Truncated against eps pi^n; the Jacobi sup bound P_m^{(a,b)}(1) with
    (a,b) = (max, min)(n-1, 2nu) makes the tail bound rigorous.
    """
    big, qmax = two_nu + n, max(n - 1, two_nu)
    with binary64_range("a series weight (2m+2nu+n) Gamma(m+n+2nu)/Gamma(m+2nu+1)"):
        return _truncated_weights(
            lambda m: (2 * m + big) * float(_gamma_ratio(n, two_nu, m)),
            lambda m: comb(m + qmax, m), _gaussian(n, two_nu, t), eps * pi**n)


def heat_kernel_series(n: int, two_nu: int, t: float, z, w, eps: float = 1e-10) -> KernelEval:
    """Spectral-series heat kernel H_nu(t,z,w) with verified truncation < eps.

    The e^{4t(nu^2+n^2/4)} prefactor is folded into each term, so every
    exponent is <= 0 and the Jacobi sup bound makes the tail bound rigorous.

    z and w may also be 2-D complex ndarrays of shape (P, n), one pair per
    row; the weights and the constants of the Jacobi recurrence are then
    built once, value and error_bound are shape-(P,) arrays, each entry
    bit-identical to the call on that row's pair alone, and terms_used stays
    one int. The recurrence runs on each pair's cos 2d as a Python float,
    which rounds every operation as numpy's float64 does.
    """
    _require_time(t)
    pt = SpectralPoint(n, two_nu, 0)  # rejects n < 1 and 2nu < 0
    n, two_nu = pt.n, pt.two_nu  # Python ints, so the weights never run in a numpy int
    pairs, rows = _pairs(z, w)
    geometry = [point_pair(n, a, b) for a, b in pairs]
    weights, tail = _series_weights(n, two_nu, t, eps)
    kmax = len(weights) - 1
    recurrence = _recurrence(kmax, n - 1, two_nu)  # one set of constants for every pair
    values, bounds = [], []
    for c2, q in geometry:
        pvals = _recurrence_values(kmax, recurrence, float(double_angle(c2)))
        inner = math.fsum(wm * pm for wm, pm in zip(weights, pvals))
        scale = q**two_nu / pi**n
        values.append(complex(scale * inner))
        bounds.append(tail * abs(scale))
    return _packed(rows, values, len(weights), bounds)


def _gegenbauer_weights(n: int, two_nu: int, t: float) -> tuple[np.ndarray, float]:
    """Weights (2m+lam) e^{t[(2nu)^2+n^2-(2m+lam)^2]} of G = sum_m weight_m C_{2m}^{lam}.

    lam = n + 2nu; truncated against 1e-13 max(1, the m = 0 bound).
    """
    lam, decay = n + two_nu, _gaussian(n, two_nu, t)
    # the sup comb(2m+lam-1, 2m) is C_{2m}^{lam/2}(1), below C_{2m}^{lam}(1) = comb(2m+2lam-1, 2m)
    # once m >= 1, so the tail bound and the terms kept under-report (ROADMAP item 2)
    weights, tail = _truncated_weights(lambda m: 2 * m + lam,
                                       lambda m: comb(2 * m + lam - 1, 2 * m),
                                       decay, 1e-13 * max(1.0, lam * decay(0)))
    return np.array(weights), tail


def _exact_order(two_nu: int, terms: int) -> int:
    """Fewest midpoint nodes that integrate the bracket of a G of the given terms exactly.

    (cos phi)^{4nu} = (1 - sin^2 phi)^{2nu} and the even G of degree
    2 (terms - 1) make the integrand a polynomial of degree
    K = 2nu + terms - 1 in sin^2 phi = (1 - cos 2 phi) / 2, so a cosine
    polynomial of degree K in 2 phi; the midpoint rule of N nodes on
    [0, pi/2] is exact for it once 2N > K, so N = K // 2 + 1.
    """
    return (two_nu + terms - 1) // 2 + 1


def _bracket_integral(n: int, two_nu: int, t: float, cos_rho: np.ndarray,
                      scale) -> tuple[np.ndarray, int, float]:
    """scale * int_0^{pi/2} (cos rho cos phi)^{4nu} G_t(cos rho sin phi) dphi for each pair.

    cos_rho holds one entry per pair, in [0, 1], scale one per pair or one
    for all. The call builds one G and one midpoint rule of _exact_order's
    order, so the quadrature is exact, and evaluates every pair on one
    (pairs x nodes) array. Returns (values, the terms of G, the tail bound
    of G).
    """
    weights, tail = _gegenbauer_weights(n, two_nu, t)
    phi, wphi = midpoint_rule(_exact_order(two_nu, len(weights)), 0.0, pi / 2)
    c = cos_rho[:, None]
    cvals = gegenbauer_values(2 * (len(weights) - 1), n + two_nu, c * np.sin(phi))
    # summed term by term, not by BLAS, whose order of summation can depend on
    # the row count: so a row sums as a one-pair call does
    g = sum(wm * cm for wm, cm in zip(weights, cvals[0::2]))
    return scale * np.sum(wphi * (c * np.cos(phi)) ** (2 * two_nu) * g, axis=1), len(weights), tail


def _integral_geometry(n: int, z, w) -> tuple[float, complex]:
    c2, q = point_pair(n, z, w)
    if c2 < 1e-20:
        raise AntipodalDegenerate("1 + <z,w> ~ 0: integral prefactor degenerates")
    return single_angle(c2), np.conjugate(q)


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


def _packed(rows: bool, values, terms_used, bounds) -> KernelEval:
    """One pair's KernelEval, or with rows shape-(P,) value and error_bound arrays."""
    if rows:
        return KernelEval(value=np.array(values, dtype=complex), terms_used=terms_used,
                          error_bound=np.array(bounds, dtype=float))
    return KernelEval(value=complex(values[0]), terms_used=terms_used,
                      error_bound=float(bounds[0]))


def _integral(n: int, two_nu: int, t: float, z, w, what: str, constant) -> KernelEval:
    """const conj(q)^{-2nu} int_0^{pi/2} (cos rho cos phi)^{4nu} G(u(phi)) dphi, both forms.

    Checks the time, the labels, the rows and each pair's geometry, in that
    order; then const = constant(n, 2nu) of the checked labels, whose
    overflow raises Binary64Overflow naming what.
    """
    _require_time(t)
    pt = SpectralPoint(n, two_nu, 0)  # rejects n < 1 and 2nu < 0
    n, two_nu = pt.n, pt.two_nu  # Python ints, so the weights never run in a numpy int
    pairs, rows = _pairs(z, w)
    geometry = [_integral_geometry(n, a, b) for a, b in pairs]
    w_factors = [qbar ** (-two_nu) for _, qbar in geometry]  # exactly 1 at nu = 0
    with binary64_range(what):
        const = constant(n, two_nu)
        if not math.isfinite(const):
            raise OverflowError

    values, terms, tail = _bracket_integral(
        n, two_nu, t, np.array([cos_rho for cos_rho, _ in geometry]),
        np.array([const * w_factor for w_factor in w_factors]))
    bounds = [const * abs(w_factor) * (pi / 2) * tail for w_factor in w_factors]
    return _packed(rows, values, terms, bounds)


def heat_kernel_integral(n: int, two_nu: int, t: float, z, w) -> KernelEval:
    """Integral-representation heat kernel, with the exact Gegenbauer bracket.

    H_nu(t,z,w) = (2 Gamma(n+2nu) 4^{2nu} (2nu)! / ((4nu)! pi^{n+1}))
                  * conj(q)^{-2nu}
                  * int_0^{pi/2} (cos rho cos phi)^{4nu} G(u(phi)) dphi
    with G the weighted Gegenbauer sum and e^{4t(nu^2+n^2/4)} folded into G.
    The constant carries the 1/Gamma(1/2) that the Jacobi-to-Gegenbauer
    integral representation requires (cross-checked against the series).
    The integrand is a cosine polynomial of known degree, so the one
    midpoint rule built, of _exact_order's order, integrates it exactly and
    error_bound is the truncation tail of G alone; rounding is not
    included.

    z and w may also be 2-D complex ndarrays of shape (P, n), one pair per
    row, all at the one time t: they share its G and its rule. value and
    error_bound are then shape-(P,) arrays, each entry bit-identical to the
    call on that row's pair alone (the order depends on 2nu and the time,
    not the pair), and terms_used stays one int. A degenerate row raises
    AntipodalDegenerate.
    """
    # at 2nu = 85 the product runs to inf before the quotient brings it to ~3.3
    return _integral(n, two_nu, t, z, w,
                     "the integral-form constant 2 Gamma(n+2nu) 4^{2nu} (2nu)!/(4nu)!",
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
    midpoint rule is exact, as in heat_kernel_integral, and z and w may be
    (P, n) arrays of pairs at the one time t.
    """
    # weight (cos^2 rho - cos^2 u)^{-1/2} * sin u du == dphi exactly
    return _integral(n, 0, t, z, w,
                     "the classical constant 2^{n-1} (n-1)!/(2^{n-2} pi^{n+1})",
                     lambda n, _: (1.0 / (2.0 ** (n - 2) * pi ** (n + 1)))
                     * 2.0 ** (n - 1) * factorial(n - 1))
