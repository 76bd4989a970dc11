"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines, or via the CLI as `projheat verify`. WARN entries are documented
discrepancies against the published tables (reported with both values);
they do not fail a criterion.
"""

from __future__ import annotations

import pytest

from projheat.verify import (
    suite_bernoulli,
    suite_dims,
    suite_heat,
    suite_monopole,
    suite_paper8,
    suite_theta,
    suite_trace,
    suite_zaremba,
)


def _report(criterion: str, checks) -> None:
    failed = [c for c in checks if c.status == "FAIL"]
    for c in checks:
        print(f"[{c.status}] {criterion} :: {c.name}: {c.detail}")
    assert not failed, f"{criterion} failed: " + "; ".join(
        f"{c.name}: {c.detail}" for c in failed)


def test_criterion_1_dimension_triple_agreement():
    # exact equality of the three dimension formulas, n<=6, 2nu<=8, m<=30
    _report("criterion 1 (dimension triple agreement)", suite_dims(6))


def test_criterion_2_published_table_vectors():
    # gamma/tau/c-head/u-table cross-checks; known errata surface as WARN
    _report("criterion 2 (published coefficient-table vectors)", suite_paper8())


def test_criterion_3_zaremba_lemma():
    # |zaremba_sum - closed_form| <= 1e-10 (1+|closed|), m<=3, 2nu<=4, 20 pairs
    _report("criterion 3 (Zaremba expansion, n=1)", suite_zaremba(seed=2024))


def test_criterion_4_heat_representations_agree():
    # series vs integral <= 1e-6 on the (n, 2nu, t) grid; nu=0 classical form too
    _report("criterion 4 (heat kernel series vs integral)", suite_heat(seed=2024))


def test_criterion_5_trace_asymptotic_order():
    # scaled error E(t,J)(4 pi t)^n / t^{J+1} varies < x4 between successive t
    _report("criterion 5 (trace asymptotics order t^{J+1})", suite_trace())


def test_criterion_6_theta_asymptotics():
    # theta_2/theta_3 derivative asymptotics at t=0.05 within first-omitted term
    _report("criterion 6 (theta derivative asymptotics)", suite_theta())


def test_criterion_7_bernoulli_and_diagonal_identities():
    # exact Bernoulli identities (indices <= 20/40) and K(z,z) Vol = dim
    _report("criterion 7 (Bernoulli and kernel-diagonal identities)", suite_bernoulli())


def test_criterion_8_monopole_normalization():
    # L2 norms of the monopole harmonics equal 1 within 1e-8
    _report("criterion 8 (monopole harmonic normalization)", suite_monopole())


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
