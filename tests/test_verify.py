"""Verify's tolerance checks: a NaN measurement FAILs its check."""

from __future__ import annotations

import importlib
import math

import pytest
from mpmath import mp, mpf

from projheat import verify
from projheat.kernels import KernelEval
from projheat.spectrum import SpectralPoint, dimension_product_form

NAN_EVAL = KernelEval(value=complex(math.nan), terms_used=0, error_bound=0.0)

# (scope, check, module whose binding is made to return NaN, binding, NaN value);
# the suites import the numeric functions from their defining modules when they run
CASES = [
    ("zaremba", "zaremba.lemma_n1", "projheat.kernels", "zaremba_sum_n1", complex(math.nan)),
    ("heat", "heat.series_vs_integral", "projheat.heat", "heat_kernel_integral", NAN_EVAL),
    ("heat", "heat.irhk_hi_nu0", "projheat.heat", "heat_kernel_integral_hi", NAN_EVAL),
    ("trace", "trace.scaled_error_order", "projheat.verify", "_asymptotic_trace_mp", mpf("nan")),
    ("trace", "trace.binary64_vs_mp", "projheat.verify", "trace_direct", math.nan),
    ("monopole", "monopole.normalization", "projheat.kernels", "monopole_norm_sq", math.nan),
]


@pytest.mark.parametrize("scope,name,module,binding,nan", CASES, ids=[c[1] for c in CASES])
def test_nan_measurement_fails(monkeypatch, scope, name, module, binding, nan):
    monkeypatch.setattr(importlib.import_module(module), binding, lambda *args, **kwargs: nan)
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
