"""Verify's checks: a NaN measurement FAILs; the heat suite integrates each cell in one call."""

from __future__ import annotations

import importlib
import math
from itertools import product

import numpy as np
import pytest
from mpmath import mp, mpf

from projheat import verify
from projheat.kernels import KernelEval
from projheat.spectrum import SpectralPoint, dimension_product_form


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
    ("trace", "trace.scaled_error_order", "projheat.verify", "_asymptotic_trace_mp",
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
