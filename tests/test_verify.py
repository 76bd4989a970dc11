"""Verify's tolerance checks: a NaN measurement FAILs its check."""

from __future__ import annotations

import math

import pytest
from mpmath import mpf

from projheat import verify
from projheat.kernels import KernelEval

NAN_EVAL = KernelEval(value=complex(math.nan), terms_used=0, error_bound=0.0)

# (scope, check, verify-module binding made to return NaN)
CASES = [
    ("zaremba", "zaremba.lemma_n1", "zaremba_sum_n1", complex(math.nan)),
    ("heat", "heat.series_vs_integral", "heat_kernel_integral", NAN_EVAL),
    ("heat", "heat.irhk_hi_nu0", "heat_kernel_integral_hi", NAN_EVAL),
    ("trace", "trace.scaled_error_order", "_asymptotic_trace_mp", mpf("nan")),
    ("trace", "trace.binary64_vs_mp", "trace_direct", math.nan),
    ("monopole", "monopole.normalization", "monopole_norm_sq", math.nan),
]


@pytest.mark.parametrize("scope,name,binding,nan", CASES, ids=[c[1] for c in CASES])
def test_nan_measurement_fails(monkeypatch, scope, name, binding, nan):
    monkeypatch.setattr(verify, binding, lambda *args, **kwargs: nan)
    check = next(c for c in verify.run_verify(scope) if c.name == name)
    assert check.status == "FAIL", check.detail
    assert "nan" in check.detail


def test_worst_keeps_the_first_of_equal_errors_and_the_first_nan():
    assert verify._worst([(1.0, "a"), (2.0, "b"), (2.0, "c")]) == (2.0, "b")
    worst, at = verify._worst([(1.0, "a"), (math.nan, "b"), (5.0, "c"), (math.nan, "d")])
    assert math.isnan(worst) and at == "b"
    assert verify._worst([(0.5, "a")], floor=1.0) == (1.0, None)
