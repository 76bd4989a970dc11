"""Verify's checks: a NaN measurement FAILs; the heat suite integrates each cell in one call."""

from __future__ import annotations

import importlib
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from conftest import FRESH_CLI, run_fresh
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from projheat import verify
from projheat.exactnum import bernoulli_number, theta2_series_coefficient
from projheat.heatcoeff import b_coefficients
from projheat.kernels import KernelEval, fs_distance
from projheat.spectrum import SpectralPoint, _poly_dimension_row, dimension_product_form


def _nan_rows(*args, **kwargs) -> KernelEval:
    # the heat suite integrates each cell's pairs in one call, on (P, n) rows
    rows = len(args[-1])
    return KernelEval(value=np.full(rows, complex(math.nan)), terms_used=0,
                      error_bound=np.zeros(rows))


def _returning(nan):
    return lambda *args, **kwargs: nan


# (scope, check, module whose binding is replaced, binding, NaN-returning stand-in);
# the suites import the numeric functions from their defining modules when they run
CASES = [
    ("zaremba", "zaremba.lemma_n1", "projheat.kernels", "zaremba_sum_n1",
     _returning(complex(math.nan))),
    ("heat", "heat.series_vs_integral", "projheat.heat", "heat_kernel_integral", _nan_rows),
    ("heat", "heat.irhk_hi_nu0", "projheat.heat", "heat_kernel_integral_hi", _nan_rows),
    ("trace", "trace.scaled_error_order", "projheat.verify", "_trace_direct_exact",
     _returning(math.nan)),
    ("trace", "trace.binary64_vs_mp", "projheat.verify", "trace_direct", _returning(math.nan)),
    ("monopole", "monopole.normalization", "projheat.kernels", "monopole_norm_sq",
     _returning(math.nan)),
    *(("theta", name, "projheat.verify", "theta_deriv", _returning(math.nan))
      for name in ("theta.theta2_asymptotics", "theta.theta3_asymptotics",
                   "theta.theta3_printed_sign")),
]


@pytest.mark.parametrize("scope,name,module,binding,fake", CASES, ids=[c[1] for c in CASES])
def test_nan_measurement_fails(monkeypatch, scope, name, module, binding, fake):
    monkeypatch.setattr(importlib.import_module(module), binding, fake)
    check = next(c for c in verify.run_verify(scope) if c.name == name)
    assert check.status == "FAIL", check.detail
    assert "nan" in check.detail


def _mpf(x: Fraction) -> mpf:
    return mpf(x.numerator) / x.denominator


@pytest.mark.parametrize("n,two_nu,t", [(1, 0, "0.1"), (2, 3, "0.01"), (3, 2, "0.05")])
def test_trace_direct_mp_recurrence_matches_termwise_exponentials(n, two_nu, t):
    # the exact direct trace's Gaussian recurrence against one mpmath exp per term, at 60 digits
    got = verify._trace_direct_exact(n, two_nu, Fraction(t))
    with mp.workdps(60):
        t = mpf(t)
        shift = mpf(n * n + two_nu * two_nu) / 4
        total, m = mpf(0), 0
        while m < 400:
            total += dimension_product_form(SpectralPoint(n, two_nu, m)) * mp.exp(
                (shift - mpf((2 * m + n + two_nu) ** 2) / 4) * t)
            m += 1
        assert abs(_mpf(got) - total) <= total * mpf(10) ** -55


def _termwise_trace(n: int, two_nu: int, t: str, dps: int) -> mpf:
    """sum_m dim_m e^{t[(n^2+(2nu)^2)/4 - (2m+n+2nu)^2/4]}, one exp per term, at dps
    digits, to the first m >= 8 whose term is below 10^-(dps+5) of the sum."""
    with mp.workdps(dps):
        t = mpf(t)
        shift = mpf(n * n + two_nu * two_nu) / 4
        total, m = mpf(0), 0
        while True:
            term = dimension_product_form(SpectralPoint(n, two_nu, m)) * mp.exp(
                (shift - mpf((2 * m + n + two_nu) ** 2) / 4) * t)
            total += term
            if m >= 8 and term < total * mpf(10) ** -(dps + 5):
                return total
            m += 1


# (8, 4, 0.001) and (1, 0, 0.0001) sum ~440 and ~1300 terms at 60 digits, so their last
# e_m carry the most roundings; at t = 20 and t = 5 the first Gaussian is e^{-40} and e^{-120}
TRACE_REFERENCE_CASES = [(1, 0, "0.1"), (3, 0, "0.01"), (2, 3, "0.05"), (8, 4, "0.001"),
                         (2, 2, "20"), (6, 8, "5"), (1, 0, "0.0001")]


@pytest.mark.parametrize("n,two_nu,t", TRACE_REFERENCE_CASES)
@pytest.mark.parametrize("dps", [40, 60, 80])
def test_fixed_point_trace_within_its_precision_of_a_sum_20_digits_higher(dps, n, two_nu, t):
    # at mpmath's working precision in bits for dps digits (203 at 60)
    got = verify._trace_direct_exact(n, two_nu, Fraction(t), prec=dps_to_prec(dps))
    reference = _termwise_trace(n, two_nu, t, dps + 20)
    with mp.workdps(dps + 20):
        assert abs(_mpf(got) - reference) <= reference * mpf(10) ** -dps


def test_trace_suite_prints_the_same_bytes_under_pure_python_decimal():
    # with the C module _decimal blocked, decimal is CPython's _pydecimal: the same output
    # shows the trace reference leans on no rounding that only libmpdec gives
    argv = ["verify", "--scope", "trace"]
    pure = run_fresh("import sys; sys.modules['_decimal'] = None; import decimal, _pydecimal; "
                     "assert decimal.Decimal is _pydecimal.Decimal; " + FRESH_CLI, argv)
    native = run_fresh(FRESH_CLI, argv)
    assert (pure.returncode, pure.stderr) == (native.returncode, native.stderr) == (0, "")
    assert pure.stdout == native.stdout and "trace.binary64_vs_mp" in pure.stdout


def _mpf_loop_trace(n: int, two_nu: int, t: mpf) -> mpf:
    """The direct trace as an mpf loop at the working precision, as verify once summed it."""
    row, den = _poly_dimension_row(n, two_nu)
    big_r = n + two_nu
    gauss = mp.exp((mpf(n * n + two_nu * two_nu) / 4 - mpf(big_r * big_r) / 4) * t)
    step = mp.exp(-(big_r + 1) * t)
    ratio = mp.exp(-2 * t)
    cut = mpf(10) ** (-(mp.dps + 10))
    total = mpf(0)
    m = 0
    while True:
        big_r2, acc = big_r * big_r, 0
        for a in reversed(row):
            acc = acc * big_r2 + a
        term = big_r * acc // den * gauss
        total += term
        if m >= 8 and term < total * cut:
            return total
        gauss *= step
        step *= ratio
        big_r += 2
        m += 1


def _mp_trace_pass(dps: int) -> tuple[dict, dict]:
    """verify's trace pass as it ran in mpmath, at dps digits: the mpf loop's D, S_J with
    its pi^n, and the scaled errors with the check's (4 pi)^n."""
    errors, refs = {}, {}
    with mp.workdps(dps):
        for n, nu in verify._TRACE_GRID:
            coeffs = [mpf(factor.numerator) / factor.denominator * mp.pi**p
                      for factor, p in b_coefficients(n, nu, max(verify._TRACE_ORDERS))]
            rows = {J: [] for J in verify._TRACE_ORDERS}
            for t_float in verify._TRACE_TIMES:
                t = mpf(t_float)
                direct = _mpf_loop_trace(n, 2 * nu, t)
                scale = (4 * mp.pi * t) ** n
                total = mpf(0)
                for j, c in enumerate(coeffs):
                    total += c * t**j
                    if j in rows:
                        asymptotic = total / scale
                        rows[j].append(float(abs(direct - asymptotic) * scale / t ** (j + 1)))
                        if j == 6 and t_float in verify._BINARY64_TIMES:
                            refs[n, nu, t_float] = float(direct), float(asymptotic)
            errors.update(((n, nu, J), vals) for J, vals in rows.items())
    return errors, refs


@pytest.fixture(scope="module")
def trace_pass():
    return verify._trace_exact()


@pytest.fixture(scope="module")
def mp_pass():
    return _mp_trace_pass(60)


@pytest.fixture(scope="module")
def mp_pass_40():
    return _mp_trace_pass(40)


@pytest.mark.parametrize("n,nu,t", [(n, nu, t) for (n, nu), t in
                                    product(verify._TRACE_GRID, verify._BINARY64_TIMES)])
def test_trace_binary64_references_equal_a_40_digit_pass(trace_pass, mp_pass_40, n, nu, t):
    # the exact sums, rounded to binary64, are a 40-digit mpmath pass's references bit for bit
    assert trace_pass[1][n, nu, t] == mp_pass_40[1][n, nu, t]


def test_trace_scaled_errors_equal_one_sum_per_order(trace_pass):
    # the partial sums read off one accumulation equal a separate exact sum per J, bit
    # for bit: each scaled error is one rounding of an exact value
    expected = {}
    for (n, nu), J in product(verify._TRACE_GRID, verify._TRACE_ORDERS):
        b = b_coefficients(n, nu, J)
        expected[n, nu, J] = []
        for t in map(Fraction, verify._TRACE_TIMES):
            asymptotic = sum(factor * t**j for j, (factor, _) in enumerate(b)) / (4 * t) ** n
            direct = verify._trace_direct_exact(n, 2 * nu, t)
            expected[n, nu, J].append(float(abs(direct - asymptotic) * t**n / t ** (J + 1)))
    assert list(trace_pass[0].items()) == list(expected.items())


def _trace_fraction_pass() -> tuple[dict, dict]:
    """verify._trace_exact as it was: every partial sum and error a Fraction, rounded by
    float()."""
    errors, refs = {}, {}
    for n, nu in verify._TRACE_GRID:
        factors = [factor for factor, _ in b_coefficients(n, nu, max(verify._TRACE_ORDERS))]
        rows = {J: [] for J in verify._TRACE_ORDERS}
        for t_float in verify._TRACE_TIMES:
            t = Fraction(t_float)
            direct = verify._trace_direct_exact(n, 2 * nu, t)
            scale = (4 * t) ** n
            total = 0
            for j, factor in enumerate(factors):
                total += factor * t**j
                if j in rows:
                    asymptotic = total / scale
                    rows[j].append(float(abs(direct - asymptotic) / t ** (j + 1 - n)))
                    if j == 6 and t_float in verify._BINARY64_TIMES:
                        refs[n, nu, t_float] = float(direct), float(asymptotic)
        errors.update(((n, nu, J), vals) for J, vals in rows.items())
    return errors, refs


def test_trace_integer_sums_are_the_fraction_pass_bit_for_bit(trace_pass):
    # the decimal sums, each float one float() of a decimal, give the Fraction pass's
    # errors and references bit for bit, keys in its order
    def bits(table):
        return [(key, [float.hex(x) for x in vals]) for key, vals in table.items()]

    errors, refs = _trace_fraction_pass()
    assert bits(trace_pass[0]) == bits(errors)
    assert bits(trace_pass[1]) == bits(refs)


def test_trace_pass_equals_the_mpf_loop_bit_for_bit(trace_pass, mp_pass):
    # every binary64 reference is the float the 60-digit mpf loop gave, and the errors
    # have its keys in its order
    assert list(trace_pass[1].items()) == list(mp_pass[1].items())
    assert [(key, len(vals)) for key, vals in trace_pass[0].items()] == \
        [(key, len(vals)) for key, vals in mp_pass[0].items()]


def test_trace_ratios_within_4_ulp_of_the_mpf_loop(trace_pass, mp_pass):
    # the exact errors leave out (4 pi)^n, which cancels in each ratio the check reports
    def ratios(errors):
        return [max(a / b, b / a) for vals in errors.values() for a, b in zip(vals, vals[1:])]

    got, expected = ratios(trace_pass[0]), ratios(mp_pass[0])
    assert len(got) == len(expected) == 45
    for a, b in zip(got, expected):
        assert abs(a - b) <= 4 * math.ulp(b) and f"{a:.3f}" == f"{b:.3f}"


def _theta2_asym(p: int, t: float, terms: int) -> tuple[float, float]:
    """verify's truncated (-d/dt)^p theta_2 expansion as it was, with its omitted term."""
    val = math.factorial(p) / t ** (1 + p)
    val += (-1) ** p * sum(
        float(theta2_series_coefficient(s + p)) * t**s / math.factorial(s) for s in range(terms)
    )
    omitted = abs(float(theta2_series_coefficient(terms + p))) * t**terms / math.factorial(terms)
    return val, omitted


def _theta3_asym(l: int, t: float, terms: int) -> tuple[float, float]:
    """verify's truncated (-d/dt)^l theta_3 expansion (corrected sign) as it was."""
    val = math.factorial(l) / t ** (1 + l)
    val += (-1) ** l * sum(
        (-1) ** (j + 1) * float(bernoulli_number(2 * j + 2)) * t ** (j - l)
        / ((j + 1) * math.factorial(j - l))
        for j in range(l, l + terms)
    )
    j = l + terms
    omitted = (abs(float(bernoulli_number(2 * j + 2))) * t**terms
               / ((j + 1) * math.factorial(terms)))
    return val, omitted


def _theta3_printed(t: float, terms: int) -> float:
    """verify's theta_3 expansion with the published correction-series sign, as it was."""
    return 1.0 / t + sum(
        (-1) ** j * float(bernoulli_number(2 * j + 2)) * t**j / ((j + 1) * math.factorial(j))
        for j in range(terms)
    )


@pytest.mark.parametrize("t", [0.003, 0.01, 0.05, 0.07, 0.1, 0.2, 0.5, 1.3])
def test_theta_expansion_is_the_three_old_forms_bit_for_bit(t):
    # one expansion, three (coef, weight) pairs: each float is the old form's, bit for bit
    def bits(pair):
        return tuple(map(float.hex, pair))

    for terms, p in product(range(1, 10), range(6)):
        assert bits(verify._theta_expansion(*verify._THETA2, p, t, terms)) == \
            bits(_theta2_asym(p, t, terms))
        assert bits(verify._theta_expansion(*verify._THETA3, p, t, terms)) == \
            bits(_theta3_asym(p, t, terms))
    for terms in range(1, 10):
        assert verify._theta_expansion(*verify._THETA3_PRINTED, 0, t, terms)[0].hex() == \
            _theta3_printed(t, terms).hex()


def test_theta3_printed_sign_warns_only_outside_the_corrected_envelope(monkeypatch):
    # the published sign misses theta_3 by O(1) at t = 0.05: WARN; a miss within 1.5x the
    # first omitted term, where the corrected expansion lands, is no erratum: FAIL
    check = next(c for c in verify.suite_theta() if c.name == "theta.theta3_printed_sign")
    assert check.status == "WARN"
    monkeypatch.setattr(verify, "theta_deriv", lambda which, p, t, eps: _theta3_printed(t, 6))
    check = next(c for c in verify.suite_theta() if c.name == "theta.theta3_printed_sign")
    assert check.status == "FAIL" and "= 0.000e+00 at" in check.detail


def test_worst_keeps_the_first_of_equal_errors_and_the_first_nan():
    assert verify._worst([(1.0, "a"), (2.0, "b"), (2.0, "c")]) == (2.0, "b")
    worst, at = verify._worst([(1.0, "a"), (math.nan, "b"), (5.0, "c"), (math.nan, "d")])
    assert math.isnan(worst) and at == "b"
    assert verify._worst([(0.5, "a")], floor=1.0) == (1.0, None)


def _sample_pair_per_draw(rng, n: int):
    """verify._sample_pair as it was: two rng.normal calls of shape (n, 2) per attempt."""
    while True:
        z = tuple(complex(a, b) for a, b in rng.normal(0.0, 0.6, (n, 2)))
        w = tuple(complex(a, b) for a, b in rng.normal(0.0, 0.6, (n, 2)))
        if fs_distance(z, w) < 1.2:
            return z, w


@pytest.mark.parametrize("seed", [1, 2, 7, 2024])
def test_buffered_draws_sample_the_pairs_of_one_draw_per_attempt(seed):
    # the heat suite's buffered stream, and the zaremba suite's one block, read the
    # generator in the order the per-attempt draws did: the same points, bit for bit
    draws = verify._normals(np.random.default_rng(seed), 0.6)
    rng = np.random.default_rng(seed)
    for n in (1, 2, 1, 3, 2):
        for _ in range(40):
            assert verify._sample_pair(draws, n) == _sample_pair_per_draw(rng, n)
    rng = np.random.default_rng(seed)
    block = np.random.default_rng(seed).normal(0.0, 0.8, (800, 2)).tolist()
    assert [complex(a, b) for a, b in block] == [complex(*rng.normal(0.0, 0.8, 2))
                                                 for _ in range(800)]


def _heat_checks_one_pair_at_a_time(seed: int) -> list[verify.Check]:
    # the heat suite with one integral call per pair, drawing pairs in the same order
    from projheat.heat import heat_kernel_integral, heat_kernel_integral_hi, heat_kernel_series

    draws = verify._normals(np.random.default_rng(seed), 0.6)

    def rel(n, tn, t, classical=False):
        z, w = verify._sample_pair(draws, n)
        hs = heat_kernel_series(n, tn, t, z, w).value
        hi = (heat_kernel_integral_hi(n, t, z, w) if classical
              else heat_kernel_integral(n, tn, t, z, w)).value
        return abs(hs - hi) / (1.0 + abs(hs))

    worst, at = verify._worst((rel(n, tn, t), (n, tn, t)) for n, tn, t, _ in
                              product((1, 2), (0, 1, 2), (0.3, 0.5, 1.0), range(5)))
    checks = [verify._check(
        "heat.series_vs_integral", worst <= 1e-6,
        f"max |series - integral|/(1+|series|) = {worst:.3e} at (n, 2nu, t) = {at} "
        "over n in {1,2}, 2nu in {0,1,2}, t in {0.3,0.5,1.0} (tol 1e-6)")]
    worst, _ = verify._worst((rel(n, 0, t, classical=True), (n, t))
                             for n, t, _ in product((1, 2), (0.3, 1.0), range(3)))
    checks.append(verify._check(
        "heat.irhk_hi_nu0", worst <= 1e-6,
        f"classical nu=0 integral form vs series: max rel diff {worst:.3e} (tol 1e-6)"))
    return checks


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_heat_suite_integrates_each_cell_in_one_call(monkeypatch, seed):
    # 22 (n, 2nu, t) cells, each integrated in one integral call by one rule of its exact
    # order (2nu + M - 1)//2 + 1, M the terms of its G, and two truncations per cell, the
    # integral's and the series', both at the series' default eps
    from projheat import heat
    from projheat.theta import KERNEL_EPS

    rules, truncations = [], []
    monkeypatch.setattr(heat, "midpoint_rule",
                        lambda k, a, b, f=heat.midpoint_rule: rules.append(k) or f(k, a, b))
    monkeypatch.setattr(heat, "_series_weights",
                        lambda *args, f=heat._series_weights: truncations.append(args) or f(*args))
    checks = verify.run_verify("heat", seed=seed)
    cells = ([(n, tn, t) for n, tn, t in product((1, 2), (0, 1, 2), (0.3, 0.5, 1.0))]
             + [(n, 0, t) for n, t in product((1, 2), (0.3, 1.0))])
    assert truncations == [(*cell, KERNEL_EPS) for cell in cells for _ in range(2)]
    monkeypatch.undo()
    orders = [(tn + len(heat._series_weights(n, tn, t, KERNEL_EPS)[0]) - 1) // 2 + 1
              for n, tn, t in cells]
    assert rules == orders and set(orders) <= set(range(4, 8))
    assert checks == _heat_checks_one_pair_at_a_time(seed)
