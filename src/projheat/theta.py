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

trace_direct and theta_deriv sum what the cut keeps through _fsum_cut,
which may stop it sooner. Their terms are log-concave in m (positive
linear factors times a Gaussian), so past the peak one geometric bound T
covers the whole tail; where adding T to the head leaves the head's fsum
unchanged, rounding being monotone, no longer cut can change it either. So
each sum is bit for bit the one the rule's own cut gives, in O(t^{-1/2})
terms where the rule, waiting for a ratio under 0.9, takes O(1/t).
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
# terms between _fsum_cut's early-exit checks, which stay out of the per-term loop
_SETTLE_EVERY = 64
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


def _truncate(bounds, eps: float, settle=None) -> tuple[list[float], float]:
    """terms_needed's cut over an iterator of the bounds bound(0), bound(1), ...

    It pulls bound(m) in order of m and no further than terms_needed evaluates
    (through m = M+2 for a cut at M terms), keeping the last three in locals.
    With settle, the loop runs in passes of _SETTLE_EVERY terms, and before
    each later pass, at M = _MIN_TERMS + k _SETTLE_EVERY, it calls
    settle(values) on the bounds bound(0) .. bound(M+1) pulled so far; a
    float it returns is a tail that cuts there, at M. The rule within a pass
    is the same, so a cut the rule makes is the same cut.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    values = list(islice(bounds, _MIN_TERMS + 2))
    b1, b2 = values[-2:]
    append = values.append
    # the rule tries the cuts M = _MIN_TERMS .. _MAX_TERMS+1, pulling bound(M+2) for each
    left = _MAX_TERMS + 2 - _MIN_TERMS
    step = left if settle is None else _SETTLE_EVERY
    while left > 0:
        # islice pulls no bound past the pass, so none past the last cut's
        for b3 in islice(bounds, step if step < left else left):
            append(b3)
            if b1 == 0.0:
                return values[:-3], 0.0
            r1 = b2 / b1
            if r1 < 0.9 and (b3 / b2 if b2 > 0 else 0.0) <= r1 * (1 + 1e-12):
                tail = b1 / (1.0 - r1)
                if tail < eps:
                    return values[:-3], tail
            b1, b2 = b2, b3
        left -= step
        if settle is None or left <= 0:
            break
        tail = settle(values)
        if tail is not None:
            return values[:-2], tail
    raise TruncationFailed(f"series tail bound not below {eps:g} within {_MAX_TERMS} terms")


def _fsum_cut(terms, eps: float) -> float:
    """math.fsum of what _truncate(terms, eps) keeps, for positive log-concave terms.

    The terms must be positive, log-concave in m (term(m)^2 >= term(m-1)
    term(m+1): positive linear factors times a Gaussian in m), and each float
    within ~1e-13 relative of its exact value. The rule of _truncate is
    unchanged; the one early exit is its settle, at the pass boundaries M
    past the peak, where r = term(M+1)/term(M) < 1. The argument, in the
    manner of verify._trace_direct_exact's bound:

    - Each later ratio is <= r (log-concavity), so the exact tail from M is
      at most term(M)/(1 - r). T = 2 term(M)/(1 - r) bounds the sum of the
      float terms from M on: the factor 2 covers their rounding and r's.
    - The cut stops at M when fsum(head) == fsum(head + [T]) and returns
      fsum(head). Any longer cut's float sum lies between the exact head sum
      and that plus T, and rounding is monotone, so it rounds to the same
      float. That is the rule's own cut at eps, and also a cut past
      _MAX_TERMS, where the rule would raise TruncationFailed.
    - A passing check needs T <= ulp(head sum), and every term before M is
      at most term(M) r^{-(M-k)}, so with M <= _MAX_TERMS, 1 - r > 1e-4:
      far above the 1e-13 relative error of r that the factor 2 absorbs.

    A try costs two fsums over the head, so a boundary tries only once T <=
    ulp(S) scale. S is the last head sum taken, at first a plain float sum
    (the terms are positive, so the head sum only grows); scale starts at
    1/16 and shrinks by 1024 after a failed try, so a cut makes O(1) tries.
    Nor does a boundary try where the rule cuts within M/16 terms at the
    current ratio, which costs less than a try. These gates move only the
    cost, never the sum.
    """
    limit, scale, settled = None, 1.0 / 16, None

    def settle(values: list[float]) -> float | None:
        nonlocal limit, scale, settled
        b1, b2 = values[-2], values[-1]
        if not b2 < b1:  # before the peak, or b1 = 0, where the rule cuts
            return None
        r = b2 / b1
        tail = 2.0 * b1 / (1.0 - r)
        if limit is None:  # the first boundary past the peak: a gate from a plain float sum
            limit = math.ulp(sum(values)) * scale
        if tail > limit or (r < 0.9 and tail * r ** (len(values) / 16) < 2.0 * eps):
            return None  # not yet, or the rule cuts within M/16 terms, for less than a try
        head = values[:-2]
        total = math.fsum(head)
        if tail <= math.ulp(total) * scale:
            head.append(tail)
            if math.fsum(head) == total:
                settled = total
                return tail
            scale /= 1024
        limit = math.ulp(total) * scale
        return None

    values, _ = _truncate(terms, eps, settle)
    return math.fsum(values) if settled is None else settled


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

    Each term is 2 h^{2p+1} e^{-h^2 t} at h = j + 1/2 or h = l, whose
    logarithm is concave in h, so the terms are log-concave and _fsum_cut
    sums them: bit for bit the sum of the cut at eps, by monotone rounding.
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
    with binary64_range("a theta-derivative term's power of the lattice point"):
        return _fsum_cut(map(term, count()), eps)


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
    positive, so the term sequence is its own tail bound. The terms are one
    stream of C-level maps, the difference table's dimensions times the
    Gaussian weights, which _truncate pulls once each in order of m; each
    float is the one next(dims) * _gaussian(n, two_nu, t/4)(m) would give.

    The sum is _fsum_cut's. dim(A_m^nu) is the product form's positive
    linear factors (m+j), (m+2nu+j) and 2m+n+2nu over a constant, and the
    weight is a Gaussian in m, so the terms are log-concave. The sum stops
    where the tail bound 2 term(M)/(1 - r) cannot change the rounded head
    sum, so by monotone rounding it is bit for bit the sum of the cut at eps.
    That takes O(t^{-1/2}) terms where the cut alone, waiting for a term
    ratio under 0.9, takes O(1/t): at (n, 2nu) = (1, 0) it pulls 2058 terms
    rather than 5280 at t = 1e-5, and 63 754 at t = 1e-8, where the cut
    alone runs past _MAX_TERMS. At t = 1e-9 it still raises TruncationFailed.
    """
    _require_time(t)
    pt = SpectralPoint(n, two_nu, 0)  # rejects n < 1 and 2nu < 0
    n, two_nu = pt.n, pt.two_nu  # Python ints, so the dimensions never run in int64
    shift, big = float(two_nu * two_nu + n * n), two_nu + n
    squares = map(mul, count(big, 2), count(big, 2))  # (2m + 2nu + n)^2, exact ints
    decays = map(exp, map(mul, repeat(t / 4.0), map(sub, repeat(shift), squares)))
    with binary64_range("a trace term dim(A_m^nu) times its Gaussian weight"):
        return _fsum_cut(map(mul, _dimensions(n, two_nu), decays), eps)
