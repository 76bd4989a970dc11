"""Quadrature grids shared by the kernel and heat-kernel checks.

The plane C (one affine chart of P^1) is integrated in polar coordinates:
Gauss-Legendre in radius after the substitution rho = tan(theta) mapping
[0, inf) to [0, pi/2), periodic trapezoid in angle. Under that substitution
the mu_1 radial weight rho (1+rho^2)^{-2} drho collapses to the smooth
sin(theta) cos(theta) dtheta, so the rule converges spectrally.

The midpoint rule serves integrands that are cosine polynomials: on
[0, pi] it integrates cos(j x) exactly for every j below twice its order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exactnum import _integer

__all__ = ["gauss_legendre", "midpoint_rule", "radial_mu1_rule", "plane_mu1_rule"]


def gauss_legendre(nodes: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b], nodes >= 1."""
    x, w = np.polynomial.legendre.leggauss(_integer("nodes", nodes, 1))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def midpoint_rule(nodes: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the nodes-point midpoint rule on [a, b].

    With x = pi (s - a) / (b - a), the rule integrates cos(j x) exactly for
    0 <= j < 2 nodes: at the nodes x_i = (2i+1) pi / (2 nodes) the sum of
    cos(j x_i) vanishes unless j is a multiple of 2 nodes. nodes >= 1.
    """
    nodes = _integer("nodes", nodes, 1)
    h = (b - a) / nodes
    return a + h * (np.arange(nodes) + 0.5), np.full(nodes, h)


def radial_mu1_rule(nr: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Radii and weights so that sum f(rho) w = integral_C f(|z|) dmu_1(z).

    Only valid for radially symmetric integrands (the 2*pi angular factor
    is folded into the weights). The arrays are built once per nr >= 1 and
    are read-only.
    """
    return _radial_mu1_arrays(_integer("nr", nr, 1))


# radial_mu1_rule stays a plain function over this cache, so it keeps the
# __code__ that perfbench/tracer.py's probes copy.
@lru_cache(maxsize=8)
def _radial_mu1_arrays(nr: int) -> tuple[np.ndarray, np.ndarray]:
    theta, wt = gauss_legendre(nr, 0.0, np.pi / 2)
    rho = np.tan(theta)
    w = 2.0 * np.pi * wt * np.sin(theta) * np.cos(theta)
    rho.flags.writeable = False
    w.flags.writeable = False
    return rho, w


def plane_mu1_rule(nr: int = 200, ntheta: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Flattened complex nodes and weights for integral_C f(z) dmu_1(z).

    The radii are radial_mu1_rule's; each radial weight is split evenly over
    ntheta equispaced angles, radius by radius; nr, ntheta >= 1.
    """
    rho, wr = radial_mu1_rule(nr)
    ntheta = _integer("ntheta", ntheta, 1)
    ang = 2.0 * np.pi * np.arange(ntheta) / ntheta
    pts = rho[:, None] * np.exp(1j * ang)[None, :]
    return pts.ravel(), np.repeat(wr / ntheta, ntheta)
