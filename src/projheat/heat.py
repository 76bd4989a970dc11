"""Heat kernel of the magnetic Laplacian: spectral series, integral form, trace.

Two independent representations are provided. The spectral series sums
reproducing-kernel terms with Gaussian-in-m weights; the integral form
integrates a Gegenbauer series against the endpoint-substituted weight
(cos u = cos rho sin phi turns (cos^2 rho - cos^2 u)^{2nu-1/2} (-d cos u)
into the smooth (cos rho cos phi)^{4nu} dphi). The inner derivative bracket
(-1/sin u d/du)^{n+2nu} of the lattice theta sum is always realized through
its exact Gegenbauer form, never by numerical differentiation.

All truncations carry geometric tail bounds (Jacobi terms are bounded by
their value at 1, valid for parameters >= 0; theta and trace terms are
positive). A KernelEval's error_bound is that tail bound, plus, for the
integral form, the change at the last node doubling, which is an estimate;
rounding error is not included. Series and trace sums use math.fsum, the
quadrature sum uses np.sum; summation order is fixed, so results are
reproducible for a given numpy.

Everything here is binary64; exact inputs (dimensions, Gamma-quotients)
are computed in integers or rationals and converted once.
"""

from __future__ import annotations

import math
from math import comb, exp, factorial, pi

import numpy as np

from .errors import AntipodalDegenerate, NonPositiveTime, TruncationFailed
from .exactnum import pochhammer
from .kernels import KernelEval, double_angle, pair_terms, point_pair, single_angle
from .orthopoly import gegenbauer_values, jacobi_values
from .quadrature import gauss_legendre
from .spectrum import SpectralPoint, _product_dimension

__all__ = [
    "theta2",
    "theta3",
    "theta_deriv",
    "big_theta",
    "heat_kernel_series",
    "heat_kernel_series_grid",
    "heat_kernel_integral",
    "heat_kernel_integral_hi",
    "trace_direct",
    "terms_needed",
]

_MIN_TERMS = 8
_MAX_TERMS = 200_000


def _require_time(t: float) -> None:
    """The one rule for a time: t must be finite and > 0, else NonPositiveTime."""
    if not 0 < t < math.inf:
        raise NonPositiveTime(f"t = {t}")


def terms_needed(bound, eps: float) -> tuple[list[float], float]:
    """The M >= _MIN_TERMS leading bounds whose verified geometric tail is < eps.

    bound(m) must dominate |term(m)| and have eventually decreasing ratios.
    The cut requires r = bound(M+1)/bound(M) < 0.9 with the next ratio no
    larger, then tail <= bound(M)/(1 - r). Each bound(m) is evaluated once,
    in order of m. Returns ([bound(0), ..., bound(M-1)], tail); raises
    ValueError unless eps > 0 and TruncationFailed past _MAX_TERMS terms.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    values = [bound(m) for m in range(_MIN_TERMS + 2)]
    for terms in range(_MIN_TERMS, _MAX_TERMS + 2):
        values.append(bound(terms + 2))
        b1, b2, b3 = values[terms:]
        if b1 == 0.0:
            return values[:terms], 0.0
        r1, r2 = b2 / b1, (b3 / b2 if b2 > 0 else 0.0)
        if r1 < 0.9 and r2 <= r1 * (1 + 1e-12):
            tail = b1 / (1.0 - r1)
            if tail < eps:
                return values[:terms], tail
    raise TruncationFailed(f"series tail bound not below {eps:g} within {_MAX_TERMS} terms")


def theta_deriv(which: int, p: int, t: float, eps: float = 1e-12) -> float:
    """(-d/dt)^p of the lattice theta function, by termwise differentiation.

    which = 2: sum (2j+1) (j+1/2)^{2p} e^{-(j+1/2)^2 t}
    which = 3: 2 sum_{l>=1} l^{2p+1} e^{-l^2 t}
    """
    _require_time(t)
    if p < 0:
        raise ValueError("derivative order must be >= 0")
    if which == 2:

        def term(j: int) -> float:
            h = j + 0.5
            return (2 * j + 1) * h ** (2 * p) * exp(-h * h * t)

    elif which == 3:

        def term(j: int) -> float:
            l = j + 1
            return 2.0 * float(l) ** (2 * p + 1) * exp(-l * l * t)

    else:
        raise ValueError("which must be 2 or 3")
    values, _ = terms_needed(term, eps)
    return math.fsum(values)


def theta2(t: float, eps: float = 1e-12) -> float:
    """Jacobi-type theta sum (2j+1) e^{-(j+1/2)^2 t}."""
    return theta_deriv(2, 0, t, eps)


def theta3(t: float, eps: float = 1e-12) -> float:
    """Jacobi-type theta sum 2 sum_{l>=1} l e^{-l^2 t}."""
    return theta_deriv(3, 0, t, eps)


def big_theta(n: int, two_nu: int, t: float, u: float, eps: float = 1e-12) -> float:
    """Theta_{n+1,nu}(t,u) = sum_m e^{-4t(m+nu+n/2)^2} cos((2m+2nu+n)u)."""
    _require_time(t)
    SpectralPoint(n, two_nu, 0)  # rejects n < 1 and 2nu < 0
    a = two_nu + n
    bounds, _ = terms_needed(lambda m: exp(-t * (2 * m + a) ** 2), eps)
    return math.fsum(b * math.cos((2 * m + a) * u) for m, b in enumerate(bounds))


def _gaussian(n: int, two_nu: int, t: float):
    """m -> e^{t[(2nu)^2+n^2-(2m+2nu+n)^2]} <= 1, the Gaussian-in-m spectral weight."""
    shift = float(two_nu * two_nu + n * n)
    big = two_nu + n
    return lambda m: exp(t * (shift - (2 * m + big) ** 2))


def _series_weights(n: int, two_nu: int, t: float, eps: float) -> tuple[list[float], float]:
    """Spectral-series weights (2m+2nu+n) Gamma-ratio e^{t[(2nu)^2+n^2-(2m+2nu+n)^2]}.

    Returns the weights for m below the truncation verified against eps pi^n,
    and the tail bound; the Jacobi sup bound P_m^{(a,b)}(1) with
    (a,b) = (max, min)(n-1, 2nu) makes the bound rigorous.
    """
    big = two_nu + n
    qmax = max(n - 1, two_nu)
    decay = _gaussian(n, two_nu, t)

    def coef(m: int) -> float:
        return (2 * m + big) * float(pochhammer(m + two_nu + 1, n - 1))

    def bound(m: int) -> float:
        return coef(m) * comb(m + qmax, m) * decay(m)

    bounds, tail = terms_needed(bound, eps * pi**n)
    return [coef(m) * decay(m) for m in range(len(bounds))], tail


def heat_kernel_series(n: int, two_nu: int, t: float, z, w, eps: float = 1e-10) -> KernelEval:
    """Spectral-series heat kernel H_nu(t,z,w) with verified truncation < eps.

    The e^{4t(nu^2+n^2/4)} prefactor is folded into each term, so every
    exponent is <= 0 and the Jacobi sup bound makes the tail bound rigorous.
    """
    _require_time(t)
    SpectralPoint(n, two_nu, 0)  # rejects n < 1 and 2nu < 0
    c2, q = point_pair(n, z, w)
    weights, tail = _series_weights(n, two_nu, t, eps)
    pvals = jacobi_values(len(weights) - 1, n - 1, two_nu, double_angle(c2))
    inner = math.fsum(wm * pm for wm, pm in zip(weights, pvals))
    scale = q**two_nu / pi**n
    return KernelEval(value=complex(scale * inner), terms_used=len(weights),
                      error_bound=tail * abs(scale))


def heat_kernel_series_grid(two_nu: int, t: float, z: complex, ws: np.ndarray,
                            eps: float = 1e-10) -> np.ndarray:
    """Vectorized n=1 heat-kernel series at one source z over a grid of w.

    Used by the quadrature cross-checks (mass, semigroup); truncation order
    is fixed by the x = 1 bound, uniform over the grid.
    """
    _require_time(t)
    SpectralPoint(1, two_nu, 0)  # rejects 2nu < 0
    weights, _ = _series_weights(1, two_nu, t, eps)
    c2, q = pair_terms(1.0 + abs(z) ** 2, 1.0 + np.abs(ws) ** 2, 1.0 + z * np.conjugate(ws))
    pvals = jacobi_values(len(weights) - 1, 0, two_nu, double_angle(c2))
    return q**two_nu / pi * np.dot(weights, pvals)


def _gegenbauer_weights(n: int, two_nu: int, t: float) -> tuple[np.ndarray, float]:
    """Weights (2m+2nu+n) e^{t[(2nu)^2+n^2-(2m+2nu+n)^2]} of the Gegenbauer sum.

    G(cos u) = sum_m weight_m C_{2m}^{n+2nu}(cos u). Returns the weights for
    m below the verified truncation, and the tail bound;
    |C_{2m}(x)| <= C_{2m}(1) gives the cut.
    """
    lam = n + two_nu
    decay = _gaussian(n, two_nu, t)

    def bound(m: int) -> float:
        return (2 * m + lam) * comb(2 * m + lam - 1, 2 * m) * decay(m)

    bounds, tail = terms_needed(bound, 1e-13 * max(1.0, bound(0)))
    return np.array([(2 * m + lam) * decay(m) for m in range(len(bounds))]), tail


def _bracket_integral(n: int, two_nu: int, t: float, cos_rho: float, scale,
                      start_nodes: int) -> tuple[complex, int, float, float]:
    """scale * int_0^{pi/2} (cos rho cos phi)^{4nu} G(cos rho sin phi) dphi.

    Gauss-Legendre from start_nodes in [16, 1024], with the order doubled
    at least once and then until the scaled value moves < 1e-9 or the order
    is 1024 or more, so the last rule has up to 2048 nodes (a start of 1024
    evaluates 1024 and 2048). Returns (value, terms of G, change at the last
    doubling, tail bound of G).
    """
    if not 16 <= start_nodes <= 1024:
        raise ValueError(f"quadrature nodes must be in [16, 1024], got {start_nodes}")
    weights, tail = _gegenbauer_weights(n, two_nu, t)

    def eval_at(nodes: int):
        phi, wphi = gauss_legendre(nodes, 0.0, pi / 2)
        cvals = gegenbauer_values(2 * (len(weights) - 1), n + two_nu, cos_rho * np.sin(phi))
        g = np.tensordot(weights, cvals[0::2], axes=(0, 0))
        return scale * float(np.sum(wphi * (cos_rho * np.cos(phi)) ** (2 * two_nu) * g))

    nodes = start_nodes
    value = eval_at(nodes)
    while True:
        nodes *= 2
        cur = eval_at(nodes)
        value, change = cur, abs(cur - value)
        if change < 1e-9 or nodes >= 1024:
            return value, len(weights), change, tail


def _integral_geometry(n: int, z, w) -> tuple[float, complex]:
    c2, q = point_pair(n, z, w)
    if c2 < 1e-20:
        raise AntipodalDegenerate("1 + <z,w> ~ 0: integral prefactor degenerates")
    return single_angle(c2), np.conjugate(q)


def heat_kernel_integral(n: int, two_nu: int, t: float, z, w, nodes: int = 128) -> KernelEval:
    """Integral-representation heat kernel, with the exact Gegenbauer bracket.

    H_nu(t,z,w) = (2 Gamma(n+2nu) 4^{2nu} (2nu)! / ((4nu)! pi^{n+1}))
                  * conj(q)^{-2nu}
                  * int_0^{pi/2} (cos rho cos phi)^{4nu} G(u(phi)) dphi
    with G the weighted Gegenbauer sum and e^{4t(nu^2+n^2/4)} folded into G.
    The constant carries the 1/Gamma(1/2) that the Jacobi-to-Gegenbauer
    integral representation requires (cross-checked against the series).
    nodes in [16, 1024] is the starting Gauss-Legendre order.
    """
    _require_time(t)
    SpectralPoint(n, two_nu, 0)  # rejects n < 1 and 2nu < 0
    cos_rho, qbar = _integral_geometry(n, z, w)
    w_factor = qbar ** (-two_nu)
    const = (
        2.0
        * factorial(n + two_nu - 1)
        * 4.0**two_nu
        * factorial(two_nu)
        / (factorial(2 * two_nu) * pi ** (n + 1))
    )

    value, terms, change, tail = _bracket_integral(n, two_nu, t, cos_rho, const * w_factor,
                                                   nodes)
    tail_contrib = const * abs(w_factor) * (pi / 2) * tail
    return KernelEval(value=complex(value), terms_used=terms, error_bound=change + tail_contrib)


def heat_kernel_integral_hi(n: int, t: float, z, w, nodes: int = 128) -> KernelEval:
    """The nu = 0 integral representation with its classical constant.

    H_0 = e^{n^2 t} / (2^{n-2} pi^{n+1}) int_rho^{pi/2}
          (cos^2 rho - cos^2 u)^{-1/2} (-1/sin u d/du)^n Theta_{n+1} (-d cos u),
    with the derivative bracket replaced by 2^{n-1} (n-1)! times the
    Gegenbauer sum. Kept as a literal transcription so it is a genuinely
    independent check of the general-nu constant at nu = 0.
    """
    _require_time(t)
    SpectralPoint(n, 0, 0)  # rejects n < 1
    cos_rho, _ = _integral_geometry(n, z, w)
    const = (1.0 / (2.0 ** (n - 2) * pi ** (n + 1))) * 2.0 ** (n - 1) * factorial(n - 1)

    # weight (cos^2 rho - cos^2 u)^{-1/2} * sin u du == dphi exactly
    value, terms, change, tail = _bracket_integral(n, 0, t, cos_rho, const, nodes)
    tail_contrib = const * (pi / 2) * tail
    return KernelEval(value=complex(value), terms_used=terms, error_bound=change + tail_contrib)


def trace_direct(n: int, two_nu: int, t: float, eps: float = 1e-12) -> float:
    """Tr exp(t Delta_nu / 4) by direct spectral summation, tail bound < eps.

    Terms are dim(A_m^nu) e^{(t/4)[(n^2+(2nu)^2) - (2m+n+2nu)^2]}; they are
    positive, so the term sequence is its own tail bound, and the sum reads
    the terms terms_needed evaluated.
    """
    _require_time(t)
    SpectralPoint(n, two_nu, 0)  # rejects n < 1 and 2nu < 0
    decay = _gaussian(n, two_nu, t / 4.0)
    values, _ = terms_needed(lambda m: _product_dimension(n, two_nu, m) * decay(m), eps)
    return math.fsum(values)
