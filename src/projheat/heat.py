"""Heat kernel of the magnetic Laplacian: spectral series and integral form.

Two independent representations are provided. The spectral series sums
reproducing-kernel terms with Gaussian-in-m weights; the integral form
integrates a Gegenbauer series against the endpoint-substituted weight
(cos u = cos rho sin phi turns (cos^2 rho - cos^2 u)^{2nu-1/2} (-d cos u)
into the smooth (cos rho cos phi)^{4nu} dphi). The inner derivative bracket
(-1/sin u d/du)^{n+2nu} of the lattice theta sum is always realized through
its exact Gegenbauer form, never by numerical differentiation.

The theta sums, the direct trace and the truncation routine live in the
numpy-free ``theta`` module; this module re-exports them (theta_deriv,
trace_direct, terms_needed), so ``heat`` stays the one import for the whole
heat subsystem.

All truncations carry geometric tail bounds (Jacobi terms are bounded by
their value at 1, valid for parameters >= 0). A KernelEval's error_bound
is that tail bound, plus, for the integral form, the change at the last
node doubling, which is an estimate; rounding error is not included. The
series sum uses math.fsum, the quadrature sum uses np.sum; summation order
is fixed, so results are reproducible for a given numpy.

Everything here is binary64; exact inputs (dimensions, Gamma-quotients)
are computed in integers or rationals and converted once.
"""

from __future__ import annotations

import math
from math import comb, factorial, pi

import numpy as np

from .errors import AntipodalDegenerate, binary64_range
from .exactnum import pochhammer
from .kernels import KernelEval, double_angle, point_pair, single_angle
from .orthopoly import gegenbauer_values, jacobi_values
from .quadrature import gauss_legendre
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


def _series_weights(n: int, two_nu: int, t: float, eps: float) -> tuple[list[float], float]:
    """Spectral-series weights (2m+2nu+n) Gamma-ratio e^{t[(2nu)^2+n^2-(2m+2nu+n)^2]}.

    Returns the weights for m below the truncation verified against eps pi^n,
    and the tail bound; the Jacobi sup bound P_m^{(a,b)}(1) with
    (a,b) = (max, min)(n-1, 2nu) makes the bound rigorous. Each weight is
    kept from the one bound(m) call that terms_needed makes per m.
    """
    big = two_nu + n
    qmax = max(n - 1, two_nu)
    decay = _gaussian(n, two_nu, t)
    weights = []

    def bound(m: int) -> float:
        coef = (2 * m + big) * float(pochhammer(m + two_nu + 1, n - 1))
        gauss = decay(m)
        weights.append(coef * gauss)
        return coef * comb(m + qmax, m) * gauss

    with binary64_range("a series weight (2m+2nu+n) Gamma(m+n+2nu)/Gamma(m+2nu+1)"):
        bounds, tail = terms_needed(bound, eps * pi**n)
    return weights[:len(bounds)], tail


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


def _gegenbauer_weights(n: int, two_nu: int, t: float) -> tuple[np.ndarray, float]:
    """Weights (2m+2nu+n) e^{t[(2nu)^2+n^2-(2m+2nu+n)^2]} of the Gegenbauer sum.

    G(cos u) = sum_m weight_m C_{2m}^{n+2nu}(cos u). Returns the weights for
    m below the verified truncation, and the tail bound;
    |C_{2m}(x)| <= C_{2m}(1) gives the cut. Each weight is kept from the
    bound(m) call that computed its Gaussian.
    """
    lam = n + two_nu
    decay = _gaussian(n, two_nu, t)
    weights = {}

    def bound(m: int) -> float:
        gauss = decay(m)
        weights[m] = (2 * m + lam) * gauss
        return (2 * m + lam) * comb(2 * m + lam - 1, 2 * m) * gauss

    bounds, tail = terms_needed(bound, 1e-13 * max(1.0, bound(0)))
    return np.array([weights[m] for m in range(len(bounds))]), tail


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
    with binary64_range("the integral-form constant 2 Gamma(n+2nu) 4^{2nu} (2nu)!/(4nu)!"):
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
    with binary64_range("the classical constant 2^{n-1} (n-1)!/(2^{n-2} pi^{n+1})"):
        const = (1.0 / (2.0 ** (n - 2) * pi ** (n + 1))) * 2.0 ** (n - 1) * factorial(n - 1)

    # weight (cos^2 rho - cos^2 u)^{-1/2} * sin u du == dphi exactly
    value, terms, change, tail = _bracket_integral(n, 0, t, cos_rho, const, nodes)
    tail_contrib = const * (pi / 2) * tail
    return KernelEval(value=complex(value), terms_used=terms, error_bound=change + tail_contrib)

