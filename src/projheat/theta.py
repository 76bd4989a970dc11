"""Lattice theta sums and the direct spectral trace, in plain binary64 Python.

This is the numpy-free half of the heat subsystem: the time rule, the one
tail-truncation routine and the heat kernels' default cut, the theta sums
and their t-derivatives, the Gaussian-in-m spectral weight and the direct
trace Tr exp(t Delta_nu / 4).
It imports only the standard library, ``errors``, ``exactnum`` and
``spectrum``, so the exact-table commands (``coeffs``, ``dims``, ``decomp``,
``trace-compare``) do not load numpy. ``heat`` imports everything here and
re-exports the public names.

Every truncation carries a geometric tail bound, and every term is
positive or bounded by a positive term, so the bound is rigorous up to
rounding (which is not included). Sums use math.fsum over terms evaluated
once each, in order of m.

The one cut is _truncate, which pulls the bounds from an iterator:
terms_needed(bound, eps) is _truncate(map(bound, count()), eps), and
trace_direct hands it a stream of C-level maps (difference-table
dimensions times Gaussian weights), so no Python call runs per term. Either
way the cut evaluates the same bounds, bound(0) through bound(M+2) for a cut
at M terms, and keeps the same floats.
"""

from __future__ import annotations

import math
import numbers
from itertools import accumulate, count, islice, repeat
from math import exp
from operator import mul, sub

from .errors import NonPositiveTime, TruncationFailed, binary64_range
from .exactnum import _integer
from .spectrum import SpectralPoint, _product_dimension

__all__ = [
    "theta_deriv",
    "trace_direct",
    "terms_needed",
]

_MIN_TERMS = 8
_MAX_TERMS = 200_000
# the heat-kernel series' default eps, and the one cut the integral form truncates at
KERNEL_EPS = 1e-10


def _require_time(t: float) -> None:
    """The one rule for a time: t must be one real number in (0, inf), else NonPositiveTime.

    Any real scalar passes (an int, a Fraction, a numpy float, a 0-d real
    array); a sequence, an array with an axis, a complex number or a string
    is not one time.
    """
    value = t.item() if getattr(t, "shape", None) == () else t
    if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise NonPositiveTime(f"t = {t!r}")


def _truncate(bounds, eps: float) -> tuple[list[float], float]:
    """terms_needed's cut over an iterator of the bounds bound(0), bound(1), ...

    It pulls bound(m) in order of m and no further than terms_needed evaluates
    (through m = M+2 for a cut at M terms), keeping the last three in locals.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    values = list(islice(bounds, _MIN_TERMS + 2))
    b1, b2 = values[-2:]
    append = values.append
    # zip reads the range first: once it runs out, no further bound is pulled
    for terms, b3 in zip(range(_MIN_TERMS, _MAX_TERMS + 2), bounds):
        append(b3)
        if b1 == 0.0:
            return values[:terms], 0.0
        r1 = b2 / b1
        if r1 < 0.9 and (b3 / b2 if b2 > 0 else 0.0) <= r1 * (1 + 1e-12):
            tail = b1 / (1.0 - r1)
            if tail < eps:
                return values[:terms], tail
        b1, b2 = b2, b3
    raise TruncationFailed(f"series tail bound not below {eps:g} within {_MAX_TERMS} terms")


def terms_needed(bound, eps: float) -> tuple[list[float], float]:
    """The M >= _MIN_TERMS leading bounds whose verified geometric tail is < eps.

    bound(m) must dominate |term(m)| and have eventually decreasing ratios.
    The cut requires r = bound(M+1)/bound(M) < 0.9 with the next ratio no
    larger, then tail <= bound(M)/(1 - r); a bound(M) of 0.0 cuts there with
    tail 0. Each bound(m) is evaluated once, in order of m, through
    m = M+2. Returns ([bound(0), ..., bound(M-1)], tail); raises
    ValueError unless eps > 0 and TruncationFailed past _MAX_TERMS terms.
    The loop is _truncate(map(bound, count()), eps), which a caller with a
    C-level stream of bounds (trace_direct) calls directly.
    """
    return _truncate(map(bound, count()), eps)


def theta_deriv(which: int, p: int, t: float, eps: float = 1e-12) -> float:
    """(-d/dt)^p of the lattice theta function, by termwise differentiation.

    which = 2: sum (2j+1) (j+1/2)^{2p} e^{-(j+1/2)^2 t}
    which = 3: 2 sum_{l>=1} l^{2p+1} e^{-l^2 t}
    """
    _require_time(t)
    which, p = _integer("which", which), _integer("p", p, 0)
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


def _gaussian(n: int, two_nu: int, t: float):
    """m -> e^{t[(2nu)^2+n^2-(2m+2nu+n)^2]} <= 1, the Gaussian-in-m spectral weight."""
    shift = float(two_nu * two_nu + n * n)
    big = two_nu + n
    return lambda m: exp(t * (shift - (2 * m + big) ** 2))


def _dimensions(n: int, two_nu: int):
    """dim(A_m^nu) for m = 0, 1, 2, ..., from a forward-difference table.

    dim is an integer polynomial of degree 2n-1 in m. Its differences at
    m = 0 come from the product form at m = 0..2n-1; each difference of
    order k is then the running sum of those of order k+1, so each later
    value costs 2n-1 integer additions.
    """
    diffs = [_product_dimension(n, two_nu, m) for m in range(2 * n)]
    for k in range(1, 2 * n):
        diffs[k:] = map(sub, diffs[k:], diffs[k - 1:-1])
    values = repeat(diffs.pop())
    for start in reversed(diffs):
        values = accumulate(values, initial=start)
    return values


def trace_direct(n: int, two_nu: int, t: float, eps: float = 1e-12) -> float:
    """Tr exp(t Delta_nu / 4) by direct spectral summation, tail bound < eps.

    Terms are dim(A_m^nu) e^{(t/4)[(n^2+(2nu)^2) - (2m+n+2nu)^2]}; they are
    positive, so the term sequence is its own tail bound, and the sum reads
    the terms the cut kept. The terms are one stream of C-level maps, the
    difference table's dimensions times the Gaussian weights, which
    _truncate pulls once each in order of m; each float is the one
    next(dims) * _gaussian(n, two_nu, t/4)(m) would give. Below t ~ 1e-4
    the sum takes O(1/t) terms: the cut waits for a term ratio under 0.9.
    """
    _require_time(t)
    pt = SpectralPoint(n, two_nu, 0)  # rejects n < 1 and 2nu < 0
    n, two_nu = pt.n, pt.two_nu  # Python ints, so the dimensions never run in int64
    shift, big = float(two_nu * two_nu + n * n), two_nu + n
    squares = map(mul, count(big, 2), count(big, 2))  # (2m + 2nu + n)^2, exact ints
    decays = map(exp, map(mul, repeat(t / 4.0), map(sub, repeat(shift), squares)))
    with binary64_range("a trace term dim(A_m^nu) times its Gaussian weight"):
        values, _ = _truncate(map(mul, _dimensions(n, two_nu), decays), eps)
    return math.fsum(values)
