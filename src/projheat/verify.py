"""Cross-representation verification suites.

Each suite returns a list of Check records (PASS / WARN / FAIL). WARN is
reserved for documented discrepancies between computed values and the
published tables (expected, reported with both values); FAIL means a
mathematical identity the engine is supposed to satisfy does not hold.

The trace-asymptotics suite compares the direct spectral trace with the
coefficient expansion in exact arithmetic: at J = 8 and t = 0.01 the
truncation error is ~1e-20, far below binary64 resolution, so the
order-t^{J+1} scaling can only be observed in extended precision. The
binary64 entry points are separately checked against the same sums.

Each tolerance check reports the worst error over its grid and where it
occurred, from one reducer (_worst): the first of equal errors wins, and a
NaN wins and stays, so a NaN measurement FAILs its check.

numpy, ``heat`` and ``kernels`` are imported by the suites that use them,
so the exact suites (dims, paper8, theta, trace) do not load numpy. No
suite uses mpmath.

The seeded suites draw their points in blocks. Generator.normal fills an
array from the stream element by element, so a block holds the values,
in order, of the draws one point at a time: the zaremba suite takes all
its coordinates from one rng.normal call, and the heat suite's rejection
sampler reads a stream buffered 256 floats at a time (_normals).

The exact suites use integer arithmetic wherever a Fraction is not needed:
the dimension forms divide integers exactly, the Bernoulli polynomials sum
a cached integer row, the brute-force power sums add integers over 2^q.
The trace suite sums each (n, nu, t) once (_trace_exact), in Python ints:
the direct trace in fixed point to 203 bits (60 digits), with a written
error bound (_trace_direct_exact, _exp_units), and the expansion exactly,
pi cancelling, at J = 4, 6, 8, as Horner numerators over one common
denominator per (n, nu). Each reported float is one int / int division,
rounded once, as float() of its Fraction would be. The binary64 check's
references are the direct and J = 6 sums, each rounded once, so its detail
names a 60-digit reference; they equal a 40-digit mpmath pass's floats bit
for bit (a test pins it). The check keeps the name the goldens hold,
trace.binary64_vs_mp, though no mpmath number is left in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, isnan, nan

from .exactnum import (
    _Series,
    _homogeneous_horner,
    _integer,
    bernoulli_number,
    bernoulli_polynomial,
    power_sum,
    rational_str,
    theta2_series_coefficient,
)
from .heatcoeff import (
    asymptotic_trace,
    b_coefficients,
    b_from_c,
    c_coefficients,
    c_head,
    nu_zero_u,
    printed_tau_n4,
)
from .spectrum import (
    SpectralPoint,
    _poly_dimension_row,
    _poly_numerator,
    decompose_multiplicity,
    dimension_gamma_form,
    dimension_poly_form,
    dimension_product_form,
)
from .theta import theta_deriv, trace_direct

__all__ = ["Check", "SCOPES", "run_verify"]


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # PASS | WARN | FAIL
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


def _check(name: str, ok: bool, detail: str) -> Check:
    return Check(name, "PASS" if ok else "FAIL", detail)


def _worst(pairs, floor: float = 0.0) -> tuple[float, object]:
    """The largest error among (error, location) pairs, and its location.

    Starts from (floor, None). The first of equal errors wins; a NaN wins
    and stays, so the tolerance test on it fails. Every pair is drawn.
    """
    worst, at = floor, None
    for err, where in pairs:
        if not (isnan(worst) or err <= worst):
            worst, at = err, where
    return worst, at


# ---------------------------------------------------------------- dims

def suite_dims(nmax: int) -> list[Check]:
    """Gamma form = product form = decomposition form for n <= nmax, 2nu <= 8, m <= 30."""
    bad = []
    count = 0
    for n, tn, m in product(range(1, nmax + 1), range(9), range(31)):
        pt = SpectralPoint(n, tn, m)
        g, p, s = dimension_gamma_form(pt), dimension_product_form(pt), dimension_poly_form(pt)
        count += 1
        if not (g == p == s and g > 0):
            bad.append((pt, g, p, s))
    return [_check(
        "dims.triple_agreement",
        not bad,
        f"{count} (n, 2nu, m) triples exactly equal across three formulas"
        if not bad else f"first mismatch: {bad[0]}",
    )]


# ---------------------------------------------------------------- paper8

def suite_paper8() -> list[Check]:
    """Published coefficient tables against the computed decomposition."""
    checks: list[Check] = []

    ok = all(decompose_multiplicity(1, Fraction(tn, 2)).coeffs == (Fraction(1),)
             for tn in range(9))
    checks.append(_check("paper8.gamma_n1", ok, "gamma^(nu,1) = [1]"))

    ok = all(
        decompose_multiplicity(2, Fraction(tn, 2)).coeffs
        == (-Fraction(tn, 2) ** 2, Fraction(1))
        for tn in range(9)
    )
    checks.append(_check("paper8.tau_n2", ok, "tau^(nu,2) = [-nu^2, 1]"))

    ok = True
    for nu in range(5):
        c = c_coefficients(3, nu, 2)
        ok &= c[1] == -(Fraction(1, 4) + nu * nu)
        ok &= c[2] == Fraction(1, 2) * (Fraction(1, 4) - nu * nu) ** 2
    checks.append(_check("paper8.c_head_n3", ok,
                         "c_1 = -(1/4+nu^2), c_2 = (1/4-nu^2)^2/2 for nu <= 4"))

    # published gamma^(nu,3) labels are shifted; report, don't assert
    nu = 2
    g = decompose_multiplicity(3, nu).coeffs
    printed_g0 = -2 * (Fraction(1, 4) + nu * nu)
    checks.append(Check(
        "paper8.gamma_n3_labels",
        "WARN" if g[0] != printed_g0 and g[1] == printed_g0 else "FAIL",
        f"published gamma_0 = {rational_str(printed_g0)} is the computed gamma_1; "
        f"computed gamma = {[rational_str(x) for x in g]} (label shift, nu={nu})",
    ))

    # published tau^(nu,4) is odd in nu; equality only at nu = 0
    for nu in (0, 1, 2):
        tau = decompose_multiplicity(4, nu).coeffs
        printed = printed_tau_n4(nu)
        if tau == printed:
            checks.append(_check(f"paper8.tau_n4_nu{nu}", True, "matches published table"))
        else:
            checks.append(Check(
                f"paper8.tau_n4_nu{nu}", "WARN",
                f"computed {[rational_str(x) for x in tau]} vs published "
                f"{[rational_str(x) for x in printed]} (published entries odd in nu)",
            ))

    J = 12
    for n in (1, 3):
        ok = c_coefficients(n, 0, J) == nu_zero_u(n, J)
        checks.append(_check(f"paper8.u_n{n}", ok, f"c(n={n}, nu=0) = printed u^{n} up to i={J}"))

    c2, u2 = c_coefficients(2, 0, J), nu_zero_u(2, J)
    sign_flip = all(c2[i] == -u2[i] for i in range(2, J + 1)) and c2[:2] == u2[:2]
    closed = all(
        c2[i] == Fraction((-1) ** (i - 1)) * bernoulli_number(2 * i) / (i * factorial(i - 2))
        for i in range(2, J + 1)
    )
    checks.append(Check(
        "paper8.u_n2", "WARN" if sign_flip and closed else "FAIL",
        "published u_i^2 has the tail sign flipped (theta_3 asymptotics erratum): "
        f"computed c_2 = {rational_str(c2[2])} vs printed {rational_str(u2[2])}; "
        "computed tail equals (-1)^(i-1) B_2i/(i (i-2)!) exactly"
        if sign_flip and closed else "unexpected n=2 nu=0 relation",
    ))

    c4, u4 = c_coefficients(4, 0, J), nu_zero_u(4, J)
    head_ok = c4[:4] == u4[:4]
    checks.append(_check("paper8.u_n4_head", head_ok, "c(n=4, nu=0) head i <= 3 matches printed"))
    tail_flip = all(c4[i] == -u4[i] for i in range(4, J + 1))
    checks.append(Check(
        "paper8.u_n4_tail", "WARN" if tail_flip else "FAIL",
        "published u^4 tail inherits the sign erratum (computed = -printed)"
        if tail_flip else "unexpected n=4 nu=0 tail relation",
    ))

    # published b_j^{(0,2)} base writes (1/4)^{j-i}; theorem gives (n^2/4)^{j-i} = 1
    b = b_from_c(2, 0, c2[:7])
    printed_b6 = b_from_c(2, 0, c2[:7], base=Fraction(1, 4))[6][0]
    checks.append(Check(
        "paper8.b_n2_base", "WARN" if printed_b6 != b[6][0] else "FAIL",
        f"theorem b_6/pi^2 = {rational_str(b[6][0])}; with the published (1/4)^(j-i) base "
        f"it would be {rational_str(printed_b6)} (copy from the n=1 case)",
    ))

    # published n=4 head c-values are odd in nu; report at nu = 1
    c41 = c_coefficients(4, 1, 3)
    printed_c41 = c_head(printed_tau_n4(1))
    checks.append(Check(
        "paper8.c_head_n4_nu1", "WARN" if c41 != printed_c41 else "FAIL",
        f"computed {[rational_str(x) for x in c41]} vs published "
        f"{[rational_str(x) for x in printed_c41]}",
    ))
    return checks


# ---------------------------------------------------------------- zaremba

def suite_zaremba(seed: int) -> list[Check]:
    """The n=1 monopole Zaremba sum equals the closed-form kernel."""
    import numpy as np

    from .kernels import reproducing_kernel, zaremba_sum_n1

    pairs = 20
    cells = list(product(range(5), range(4), range(pairs)))
    # one draw for every point: z then w of each pair, in the order the cells run
    points = iter([complex(a, b) for a, b in
                   np.random.default_rng(seed).normal(0.0, 0.8, (2 * len(cells), 2)).tolist()])

    def rel(tn: int, m: int, z: complex, w: complex) -> float:
        s = zaremba_sum_n1(tn, m, z, w)
        k = reproducing_kernel(1, tn, m, z, w).value
        return abs(s - k) / (1.0 + abs(k))

    worst, worst_at = _worst((rel(tn, m, next(points), next(points)), (tn, m))
                             for tn, m, _ in cells)
    return [_check(
        "zaremba.lemma_n1", worst <= 1e-10,
        f"max |sum - closed|/(1+|closed|) = {worst:.3e} at (2nu, m) = {worst_at} "
        f"over m <= 3, 2nu <= 4, {pairs} pairs (tol 1e-10)",
    )]


# ---------------------------------------------------------------- heat kernels

def _normals(rng, scale: float):
    """The N(0, scale) draws of rng as Python floats, one at a time, drawn 256 at a time.

    Generator.normal fills an array element by element from the stream, so
    the floats come in the order, and with the values, of one draw each.
    """
    while True:
        yield from rng.normal(0.0, scale, 256).tolist()


def _sample_pair(draws, n: int, rho_max: float = 1.2):
    """A pair of points on P^n at distance below rho_max: coordinates re, im of each
    z_j, then of each w_j, from the N(0, 0.6) floats of draws (_normals), until one
    pair is near enough."""
    from .kernels import fs_distance

    while True:
        z, w = (tuple(complex(next(draws), next(draws)) for _ in range(n)) for _ in "zw")
        if fs_distance(z, w) < rho_max:
            return z, w


def suite_heat(seed: int) -> list[Check]:
    """Spectral series vs integral representation (and the nu=0 classical form).

    Each (n, 2nu, t) cell draws its pairs, then integrates them in one
    array call and sums their series in one call, both on the same rows.
    Errors are reduced cell by cell, pair by pair.
    """
    import numpy as np

    from .heat import heat_kernel_integral, heat_kernel_integral_hi, heat_kernel_series

    draws = _normals(np.random.default_rng(seed), 0.6)

    def rels(n: int, tn: int, times: tuple, count: int, classical: bool = False):
        for t in times:
            z, w = map(np.array, zip(*(_sample_pair(draws, n) for _ in range(count))))  # (count, n)
            integral = (heat_kernel_integral_hi(n, t, z, w) if classical
                        else heat_kernel_integral(n, tn, t, z, w)).value
            series = heat_kernel_series(n, tn, t, z, w).value
            # tolist: Python complex, as the one-pair series returns, so abs rounds alike
            for hs, hi in zip(series.tolist(), integral):
                yield abs(hs - hi) / (1.0 + abs(hs)), t

    worst, worst_at = _worst((rel, (n, tn, t)) for n, tn in product((1, 2), (0, 1, 2))
                             for rel, t in rels(n, tn, (0.3, 0.5, 1.0), 5))
    checks = [_check(
        "heat.series_vs_integral", worst <= 1e-6,
        f"max |series - integral|/(1+|series|) = {worst:.3e} at (n, 2nu, t) = {worst_at} "
        "over n in {1,2}, 2nu in {0,1,2}, t in {0.3,0.5,1.0} (tol 1e-6)",
    )]
    worst, _ = _worst((rel, (n, t)) for n in (1, 2)
                      for rel, t in rels(n, 0, (0.3, 1.0), 3, classical=True))
    checks.append(_check(
        "heat.irhk_hi_nu0", worst <= 1e-6,
        f"classical nu=0 integral form vs series: max rel diff {worst:.3e} (tol 1e-6)",
    ))
    return checks


# ---------------------------------------------------------------- trace

def _exp_units(y: Fraction, bits: int) -> int:
    """e^y in units of 2^-bits, for a rational y <= 0, off by less than 2 units.

    The Taylor series of e^{-y}, whose terms are all positive, is summed in
    integers in units of 2^-(bits+16), each term truncated from the last,
    until one truncates to 0; then one integer reciprocal, shifted right by
    16. Each of the K truncations loses less than 1 unit, which the later
    terms carry forward by less than a factor e^{-y}, so the sum falls short
    by less than K e^{-y} units and its reciprocal exceeds e^y by less than
    about K units. With the reciprocal's and the shift's truncations, the
    result is off by less than 1 + K 2^-16 units: less than 2 for K < 2^16.
    """
    p, q = -y.numerator, y.denominator
    unit = 1 << (bits + 16)
    term, total, k = unit, unit, 0
    while term:
        k += 1
        term = term * p // (q * k)
        total += term
    return (unit * unit // total) >> 16


def _trace_direct_exact(n: int, two_nu: int, t: Fraction, prec: int = 203) -> Fraction:
    """The direct trace at t, to prec bits (203: 60 digits), summed ~10 digits past them.

    The Gaussian e_m = e^{t[(n^2+(2nu)^2)/4 - (2m+n+2nu)^2/4]} goes by
    e_{m+1} = e_m g_m and g_{m+1} = g_m e^{-2t}, from g_0 = e^{-(n+2nu+1)t}.
    The dimensions come from the parity decomposition's integer row
    (spectrum._poly_dimension_row) by spectrum._poly_numerator, R = 2m+n+2nu,
    so this reference shares no step with trace_direct's product form.

    The sum runs in fixed point: e_0, g_0 and e^{-2t}, each at most 1, are
    converted once to integers in units of 2^-P (_exp_units), each product
    is truncated back by >> P, and the total is one integer, returned
    unrounded as total / 2^P. A conversion is off by less than 2 units and
    a truncation by less than 1, so g_m is off by at most 3m + 2 units and
    e_m by at most 2(m+1)^2; over K terms whose largest dimension is D (the
    last, since dimensions grow with m) the total is off by at most 2 K^3 D
    units. P is prec plus guard bits; when 2 K^3 D 2^prec exceeds the total,
    the sum is redone with the guard raised by the shortfall, so the result
    is within 2^-prec of the cut sum, relative.
    """
    row, den = _poly_dimension_row(n, two_nu)
    big_r0 = n + two_nu
    exponents = (Fraction(n * n + two_nu * two_nu - big_r0 * big_r0, 4), -(big_r0 + 1), -2)
    cut = 1 << (prec + 34)
    guard = 64 + int(n * two_nu * t)  # n 2nu t bits cover e_0 = e^{-n nu t}
    while True:
        bits = prec + guard
        gauss, step, ratio = (_exp_units(x * t, bits) for x in exponents)
        total, big_r, m = 0, big_r0, 0
        while True:
            dim = _poly_numerator(row, big_r) // den
            term = dim * gauss
            total += term
            if m >= 8 and term * cut <= total:  # <=: a total of 0 stops, and is redone
                break
            gauss = gauss * step >> bits
            step = step * ratio >> bits
            big_r += 2
            m += 1
        slack = 2 * (m + 1) ** 3 * dim << prec
        if slack <= total:
            return Fraction(total, 1 << bits)
        guard += slack.bit_length() - total.bit_length() + 1


_TRACE_GRID = ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0))  # (n, nu)
_TRACE_TIMES = (0.1, 0.05, 0.02, 0.01)
_TRACE_ORDERS = (4, 6, 8)
_BINARY64_TIMES = (0.1, 0.05)  # where trace.binary64_vs_mp compares, at J = 6


def _trace_exact() -> tuple[dict, dict]:
    """The trace suite's one exact pass: scaled errors and binary64 references.

    Each (n, nu, t) of _TRACE_GRID x _TRACE_TIMES is summed once, t = p/q the
    binary64 time read exactly (q a power of 2): the direct trace D to 203
    bits, and S_J (4t)^n = sum_{j<=J} f_j t^j exactly (b_j = f_j pi^n, so pi
    cancels against S_J's (4 pi t)^{-n}). The sums run in integers: with L
    the lcm of the f_j's denominators and a_j = L f_j, the numerator
    N_J = sum_{j<=J} a_j p^j q^{J-j} of S_J (4t)^n = N_J / (L q^J) is
    exactnum's homogeneous Horner sum of a_0..a_J at (q, p), for
    J = 4, 6, 8. Each reported float is one int / int true division, which
    rounds the exact quotient once, as float() of its Fraction does; J + 1 > n
    on the grid, so the errors' t^{J+1-n} is p^k / q^k with k > 0.
    Returns the scaled errors |D - S_J| t^n / t^{J+1} keyed by (n, nu, J), one
    per t, without the check's factor (4 pi)^n: it cancels in every ratio of
    one key's values, the only figure suite_trace reports. And the references
    (float(D), float(S_6)) keyed by (n, nu, t) for t in _BINARY64_TIMES.
    """
    errors, refs = {}, {}
    for n, nu in _TRACE_GRID:
        scaled = _Series.from_fractions(
            [factor for factor, _ in b_coefficients(n, nu, max(_TRACE_ORDERS))])
        rows = {J: [] for J in _TRACE_ORDERS}
        for t_float in _TRACE_TIMES:
            p, q = t_float.as_integer_ratio()
            direct = _trace_direct_exact(n, 2 * nu, Fraction(p, q))
            # a NaN reference has no integer ratio: its errors are NaN, and FAIL the check
            d_num, d_den = direct.as_integer_ratio() if direct == direct else (0, 0)
            for J, row in rows.items():
                # S_J = N_J q^n / (L q^J 4^n p^n), and the error is over t^{J+1-n} = p^k/q^k
                s_num = _homogeneous_horner(scaled.nums[:J + 1], q, p) * q**n
                s_den = scaled.den * q**J * 4**n * p**n
                k = J + 1 - n
                diff = abs(d_num * s_den - s_num * d_den)
                row.append(diff * q**k / (d_den * s_den * p**k) if d_den else nan)
                if J == 6 and t_float in _BINARY64_TIMES:
                    refs[n, nu, t_float] = float(direct), s_num / s_den
        errors.update(((n, nu, J), vals) for J, vals in rows.items())
    return errors, refs


def suite_trace() -> list[Check]:
    """Order-t^{J+1} truncation of the asymptotic trace, plus binary64 checks."""
    errors, refs = _trace_exact()
    worst_ratio, worst_at = _worst(
        ((max(a / b, b / a), key) for key, vals in errors.items()
         for a, b in zip(vals, vals[1:])), floor=1.0)
    checks = [_check(
        "trace.scaled_error_order", worst_ratio < 4.0,
        f"scaled error E(t,J)(4 pi t)^n/t^(J+1) varies by <= {worst_ratio:.3f} "
        f"between successive t (limit 4) over the (n,nu,J) grid; worst at {worst_at}",
    )]

    # rounded to binary64, the 60-digit references equal a 40-digit pass's at every
    # point, so the reported figure does not depend on the reference precision
    worst, _ = _worst(
        (abs(fast - ref) / abs(ref), (n, nu, t))
        for (n, nu), t in product(_TRACE_GRID, _BINARY64_TIMES)
        for fast, ref in zip((trace_direct(n, 2 * nu, t), asymptotic_trace(n, nu, t, 6)),
                             refs[n, nu, t]))
    checks.append(_check(
        "trace.binary64_vs_mp", worst <= 1e-12,
        f"binary64 trace_direct/asymptotic_trace vs 60-digit reference: "
        f"max rel diff {worst:.3e} (tol 1e-12)",
    ))
    return checks


# ---------------------------------------------------------------- theta

def _theta_expansion(coef, weight, p: int, t: float, terms: int) -> tuple[float, float]:
    """(-d/dt)^p of 1/t + sum_d coef(d) t^d / (weight(d) d!), truncated, and its first
    omitted term's absolute value.

    The truncation is p!/t^(p+1) + (-1)^p sum_{s<terms} coef(s+p) t^s / (weight(s+p) s!),
    each coefficient a Fraction rounded once and each weight an int.
    """
    val = factorial(p) / t ** (1 + p)
    val += (-1) ** p * sum(
        float(coef(s + p)) * t**s / (weight(s + p) * factorial(s)) for s in range(terms)
    )
    d = terms + p
    omitted = abs(float(coef(d))) * t**terms / (weight(d) * factorial(terms))
    return val, omitted


# (coef, weight) of the small-t expansions of theta_2, of theta_3 (corrected sign) and of
# theta_3 with the published correction-series sign
_THETA2 = (theta2_series_coefficient, lambda d: 1)
_THETA3 = (lambda d: (-1) ** (d + 1) * bernoulli_number(2 * d + 2), lambda d: d + 1)
_THETA3_PRINTED = (lambda d: (-1) ** d * bernoulli_number(2 * d + 2), _THETA3[1])


def suite_theta() -> list[Check]:
    """Small-time theta-derivative asymptotics at t = 0.05, 6 terms."""
    t, terms = 0.05, 6
    checks = []
    for which, label, series in ((2, "p", _THETA2), (3, "l", _THETA3)):
        ok = True
        detail = []
        for p in range(4):
            exact = theta_deriv(which, p, t, eps=1e-14)
            asym, omitted = _theta_expansion(*series, p, t, terms)
            ok &= abs(exact - asym) <= 1.5 * omitted
            detail.append(f"{label}={p}: |diff|={abs(exact - asym):.2e} "
                          f"within 1.5x omitted {omitted:.2e}")
        checks.append(_check(f"theta.theta{which}_asymptotics", ok, "; ".join(detail)))

    # the published theta_3 correction-series sign misses by O(1), outside the envelope
    # the corrected expansion meets; report it, and FAIL a miss within it (or NaN)
    exact = theta_deriv(3, 0, t, eps=1e-14)
    corrected, omitted = _theta_expansion(*_THETA3, 0, t, terms)
    printed, _ = _theta_expansion(*_THETA3_PRINTED, 0, t, terms)
    miss = abs(exact - printed)
    checks.append(Check(
        "theta.theta3_printed_sign", "WARN" if miss > 1.5 * omitted else "FAIL",
        f"published correction-series sign leaves |theta_3 - printed| = "
        f"{miss:.3e} at t={t} (corrected sign: {abs(exact - corrected):.3e})",
    ))
    return checks


# ---------------------------------------------------------------- bernoulli

def suite_bernoulli() -> list[Check]:
    """Exact Bernoulli identities and the kernel-diagonal dimension check."""
    from .kernels import kernel_diagonal_volume_check

    checks = []
    ok = all(
        bernoulli_polynomial(2 * d + 2, Fraction(1, 2))
        == Fraction((-1) ** (d + 1)) * (d + 1) * theta2_series_coefficient(d)
        for d in range(21)
    )
    checks.append(_check("bernoulli.half_argument_rescaled", ok,
                         "B_{2(d+1)}(1/2) = (-1)^(d+1)(d+1) Btilde_d for d <= 20"))

    ok = all(
        bernoulli_polynomial(d, Fraction(1, 2))
        == -(1 - Fraction(2) ** (1 - d)) * bernoulli_number(d)
        for d in range(41)
    )
    checks.append(_check("bernoulli.half_argument_textbook", ok,
                         "B_d(1/2) = -(1-2^(1-d)) B_d for d <= 40"))

    def brute(m: int, q: int, two_a: int) -> Fraction:
        """sum_{k<=m} (k + a)^q, a = two_a/2, term by term: sum (2k + 2a)^q over 2^q."""
        return Fraction(sum((2 * k + two_a) ** q for k in range(m + 1)), 2**q)

    ok = all(power_sum(m, q, Fraction(two_a, 2)) == brute(m, q, two_a)
             for m in range(11) for q in range(1, 10) for two_a in range(4))
    ok &= all(power_sum(20, q, Fraction(two_a, 2)) == brute(20, q, two_a)
              for q in range(1, 21) for two_a in range(2))
    checks.append(_check("bernoulli.power_sums", ok,
                         "closed form = brute force for m <= 10, q <= 9, and q <= 20 spot grid"))

    ok = all(
        kernel_diagonal_volume_check(n, tn, m) == dimension_gamma_form(SpectralPoint(n, tn, m))
        for n in range(1, 5) for tn in range(5) for m in range(11)
    )
    checks.append(_check("bernoulli.kernel_diagonal_volume", ok,
                         "K(z,z) Vol = dim exactly for n <= 4, 2nu <= 4, m <= 10"))
    return checks


# ---------------------------------------------------------------- monopole

def suite_monopole() -> list[Check]:
    """Monopole-harmonic L2 normalization under the volume-normalized measure."""
    from .kernels import monopole_norm_sq

    worst, worst_at = _worst((abs(monopole_norm_sq(tn, m, k) ** 0.5 - 1.0), (tn, m, k))
                             for tn in range(4) for m in range(3)
                             for k in range(-m, tn + m + 1))
    return [_check(
        "monopole.normalization", worst <= 1e-8,
        f"max | ||Phi|| - 1 | = {worst:.3e} at (2nu, m, k) = {worst_at} (tol 1e-8)",
    )]


SCOPES = {
    "dims": suite_dims,
    "paper8": suite_paper8,
    "zaremba": suite_zaremba,
    "heat": suite_heat,
    "trace": suite_trace,
    "theta": suite_theta,
    "bernoulli": suite_bernoulli,
    "monopole": suite_monopole,
}


def run_verify(scope: str = "all", nmax: int = 6, seed: int = 2024) -> list[Check]:
    """Run one scope or all of them, in SCOPES order.

    nmax >= 1 goes to the dims suite and seed >= 0 to the zaremba and heat suites;
    the other suites take no arguments. A check whose measurement is NaN FAILs.
    """
    nmax, seed = _integer("nmax", nmax, 1), _integer("seed", seed, 0)
    names = list(SCOPES) if scope == "all" else [scope]
    if any(name not in SCOPES for name in names):
        raise ValueError(f"unknown scope {scope!r}; valid: all, {', '.join(SCOPES)}")
    args = {"dims": (nmax,), "zaremba": (seed,), "heat": (seed,)}
    return [check for name in names for check in SCOPES[name](*args.get(name, ()))]
