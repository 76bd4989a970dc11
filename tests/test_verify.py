"""Verify's checks: a NaN measurement FAILs; the heat suite integrates each cell in one call."""

from __future__ import annotations

import importlib
import math
from itertools import product

import numpy as np
import pytest
from mpmath import mp, mpf

from projheat import verify
from projheat.heatcoeff import b_coefficients
from projheat.kernels import KernelEval
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
    ("trace", "trace.scaled_error_order", "projheat.verify", "_trace_direct_mp",
     _returning(mpf("nan"))),
    ("trace", "trace.binary64_vs_mp", "projheat.verify", "trace_direct", _returning(math.nan)),
    ("monopole", "monopole.normalization", "projheat.kernels", "monopole_norm_sq",
     _returning(math.nan)),
]


@pytest.mark.parametrize("scope,name,module,binding,fake", CASES, ids=[c[1] for c in CASES])
def test_nan_measurement_fails(monkeypatch, scope, name, module, binding, fake):
    monkeypatch.setattr(importlib.import_module(module), binding, fake)
    check = next(c for c in verify.run_verify(scope) if c.name == name)
    assert check.status == "FAIL", check.detail
    assert "nan" in check.detail


@pytest.mark.parametrize("n,two_nu,t", [(1, 0, "0.1"), (2, 3, "0.01"), (3, 2, "0.05")])
def test_trace_direct_mp_recurrence_matches_termwise_exponentials(n, two_nu, t):
    # the Gaussian recurrence against one exp per term, at 60 digits
    with mp.workdps(60):
        t = mpf(t)
        shift = mpf(n * n + two_nu * two_nu) / 4
        total, m = mpf(0), 0
        while m < 400:
            total += dimension_product_form(SpectralPoint(n, two_nu, m)) * mp.exp(
                (shift - mpf((2 * m + n + two_nu) ** 2) / 4) * t)
            m += 1
        assert abs(verify._trace_direct_mp(n, two_nu, t) - total) <= total * mpf(10) ** -55


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


# (8, 4, 0.001) needs more guard bits than the first pass takes, so it is summed twice;
# at t = 20 the fixed-point e_0 = e^{-40} needs the guard's n 2nu t bits
FIXED_POINT_CASES = [(1, 0, "0.1"), (3, 0, "0.01"), (2, 3, "0.05"), (8, 4, "0.001"),
                     (2, 2, "20")]


@pytest.mark.parametrize("n,two_nu,t", FIXED_POINT_CASES)
@pytest.mark.parametrize("dps", [40, 60, 80])
def test_fixed_point_trace_within_its_precision_of_a_sum_20_digits_higher(dps, n, two_nu, t):
    reference = _termwise_trace(n, two_nu, t, dps + 20)
    with mp.workdps(dps):
        got = verify._trace_direct_mp(n, two_nu, mpf(t))
    with mp.workdps(dps + 20):
        assert abs(got - reference) <= reference * mpf(10) ** -dps


def test_fixed_point_trace_redoes_a_sum_whose_guard_falls_short(monkeypatch):
    passes = []
    workprec = mp.workprec
    monkeypatch.setattr(mp, "workprec", lambda bits: passes.append(bits) or workprec(bits))
    with mp.workdps(60):
        verify._trace_direct_mp(8, 4, mpf("0.001"))
        assert len(passes) == 2 and passes[1] > passes[0]
        passes.clear()
        verify._trace_direct_mp(1, 2, mpf("0.1"))
        assert len(passes) == 1


def _mpf_loop_trace(n: int, two_nu: int, t: mpf) -> mpf:
    """The direct trace as an mpf loop, as verify summed it before the fixed-point sum."""
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


def _asymptotic_trace_mp(n: int, b, t: mpf) -> mpf:
    # (4 pi t)^{-n} sum_{j<=J} b_j t^j at the working precision, one table per J
    total = mpf(0)
    for j, (factor, p) in enumerate(b):
        total += mpf(factor.numerator) / factor.denominator * mp.pi**p * t**j
    return total / (4 * mp.pi * t) ** n


@pytest.fixture(scope="module")
def trace_pass():
    return verify._trace_mp()


@pytest.mark.parametrize("n,nu,t", [(n, nu, t) for (n, nu), t in
                                    product(verify._TRACE_GRID, verify._BINARY64_TIMES)])
def test_trace_binary64_references_equal_a_40_digit_pass(trace_pass, n, nu, t):
    # the 60-digit sums, rounded to binary64, are the 40-digit references bit for bit
    with mp.workdps(40):
        direct = verify._trace_direct_mp(n, 2 * nu, mpf(t))
        asymptotic = _asymptotic_trace_mp(n, b_coefficients(n, nu, 6), mpf(t))
    assert trace_pass[1][n, nu, t] == (float(direct), float(asymptotic))


def test_trace_scaled_errors_equal_one_sum_per_order(trace_pass):
    # the partial sums read off one accumulation equal a separate sum per J, bit for bit
    expected = {}
    with mp.workdps(60):
        for n, nu in verify._TRACE_GRID:
            for J in verify._TRACE_ORDERS:
                b = b_coefficients(n, nu, J)
                expected[n, nu, J] = [
                    float(abs(verify._trace_direct_mp(n, 2 * nu, mpf(t)) - _asymptotic_trace_mp(
                        n, b, mpf(t))) * (4 * mp.pi * mpf(t)) ** n / mpf(t) ** (J + 1))
                    for t in verify._TRACE_TIMES]
    assert list(trace_pass[0].items()) == list(expected.items())


def test_trace_pass_equals_the_mpf_loop_bit_for_bit(trace_pass, monkeypatch):
    # every scaled error and binary64 reference is the float the mpf loop gave
    monkeypatch.setattr(verify, "_trace_direct_mp", _mpf_loop_trace)
    errors, refs = verify._trace_mp()
    assert list(trace_pass[0].items()) == list(errors.items())
    assert list(trace_pass[1].items()) == list(refs.items())


def test_worst_keeps_the_first_of_equal_errors_and_the_first_nan():
    assert verify._worst([(1.0, "a"), (2.0, "b"), (2.0, "c")]) == (2.0, "b")
    worst, at = verify._worst([(1.0, "a"), (math.nan, "b"), (5.0, "c"), (math.nan, "d")])
    assert math.isnan(worst) and at == "b"
    assert verify._worst([(0.5, "a")], floor=1.0) == (1.0, None)


def _heat_checks_one_pair_at_a_time(seed: int) -> list[verify.Check]:
    # the heat suite with one integral call per pair, drawing pairs in the same order
    from projheat.heat import heat_kernel_integral, heat_kernel_integral_hi, heat_kernel_series

    rng = np.random.default_rng(seed)

    def rel(n, tn, t, classical=False):
        z, w = verify._sample_pair(rng, n)
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
    # order (2nu + M - 1)//2 + 1, M the terms of its G, and one weight vector of each kind
    from projheat import heat

    rules, weights, series_weights = [], [], []
    monkeypatch.setattr(heat, "midpoint_rule",
                        lambda k, a, b, f=heat.midpoint_rule: rules.append(k) or f(k, a, b))
    monkeypatch.setattr(heat, "_gegenbauer_weights",
                        lambda *args, f=heat._gegenbauer_weights: weights.append(args) or f(*args))
    monkeypatch.setattr(heat, "_series_weights",
                        lambda *args, f=heat._series_weights: series_weights.append(args) or f(*args))
    checks = verify.run_verify("heat", seed=seed)
    cells = ([(n, tn, t) for n, tn, t in product((1, 2), (0, 1, 2), (0.3, 0.5, 1.0))]
             + [(n, 0, t) for n, t in product((1, 2), (0.3, 1.0))])
    assert weights == cells and [args[:3] for args in series_weights] == cells
    monkeypatch.undo()
    orders = [(tn + len(heat._gegenbauer_weights(n, tn, t)[0]) - 1) // 2 + 1
              for n, tn, t in cells]
    assert rules == orders and set(orders) <= set(range(4, 8))
    assert checks == _heat_checks_one_pair_at_a_time(seed)
