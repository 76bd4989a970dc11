"""Exact heat coefficients and the asymptotic trace evaluator."""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, inf, nan, pi

import numpy as np
import pytest

from projheat import heatcoeff
from projheat.errors import Binary64Overflow, NonPositiveTime, UnsupportedN, UnsupportedNu
from projheat.exactnum import (
    bernoulli_number,
    bernoulli_polynomial,
    rational_str,
    theta2_series_coefficient,
)
from projheat.heat import trace_direct
from projheat.heatcoeff import (
    asymptotic_sum,
    asymptotic_trace,
    b_coefficients,
    c_coefficients,
    heat_coeff_table,
    nu_zero_u,
)
from projheat.spectrum import decompose_multiplicity


def b_from_c_reference(n, nu, c, base=None):
    """The Fraction definition: base^k/k! steps, then one Fraction sum per j."""
    if base is None:
        base = Fraction(n * n, 4) + nu * nu
    steps = [Fraction(1)]  # base^k / k!
    for k in range(1, len(c)):
        steps.append(steps[-1] * base / k)
    scale = Fraction(4**n, factorial(n))
    return [(scale * sum((steps[j - i] * c[i] for i in range(j + 1)), Fraction(0)), n)
            for j in range(len(c))]


def c_with_tail_reference(n, nu, J, bern, printed):
    """The Fraction definition: the tail recurrence over the head, term by term."""
    c = heatcoeff.c_head(decompose_multiplicity(n, nu).coeffs)[: J + 1]
    odd = n % 2 == 1
    if printed and not odd:
        bern = [v - 2 * bernoulli_number(2 * k) for k, v in enumerate(bern, 1)]
    for i in range(n, J + 1):
        acc = Fraction(0)
        for q in range(n):
            k = i - q
            acc += c[q] * bern[k - 1] / (k * factorial(q if printed and odd else n - 1 - q))
        c.append(Fraction((-1) ** (i - n + 1)) * acc / factorial(i - n))
    return c


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_products_equal_the_fraction_definitions(monkeypatch, n):
    # J = 60 holds every shorter table as a prefix; the J around n and the
    # smaller J check where the tail starts and the report's truncation
    for nu in range(5):
        for J in sorted({0, 1, n - 1, n, n + 1, 7, 60}):
            bern = heatcoeff._tail_bernoulli(n, nu, J)
            c = c_with_tail_reference(n, nu, J, bern, False)
            assert c_coefficients(n, nu, J) == c
            assert c_coefficients(n, nu, J, printed=True) == c_with_tail_reference(
                n, nu, J, bern, True)
            assert b_coefficients(n, nu, J) == b_from_c_reference(n, nu, c)
            assert heatcoeff.b_from_c(n, nu, c, Fraction(1, 4)) == b_from_c_reference(
                n, nu, c, Fraction(1, 4))
            # the table's b is b_from_c of its c, pinned above
            table = heat_coeff_table(n, nu, J)
            with monkeypatch.context() as patch:
                patch.setattr(heatcoeff, "_c_with_tail", c_with_tail_reference)
                assert table == heat_coeff_table(n, nu, J)


@pytest.mark.parametrize("itype", [np.int8, np.int16, np.int64])
def test_b_from_c_reads_numpy_labels_as_python_ints(itype):
    # 4^5 and the products of the base overflow int8
    c = c_coefficients(5, 1, 6)
    assert heatcoeff.b_from_c(itype(5), itype(1), c) == heatcoeff.b_from_c(5, 1, c)


def test_c_head_n3():
    for nu in (0, 1, 2, 3):
        c = c_coefficients(3, nu, 4)
        assert c[0] == 1
        assert c[1] == -(Fraction(1, 4) + nu * nu)
        assert c[2] == Fraction(1, 2) * (Fraction(1, 4) - nu * nu) ** 2


def test_c_head_matches_decomposition():
    for n in (2, 3, 4, 5):
        for nu in (0, 1, 2):
            coeffs = decompose_multiplicity(n, nu).coeffs
            c = c_coefficients(n, nu, n - 1)
            for i in range(n):
                assert c[i] == coeffs[n - 1 - i] * Fraction(factorial(n - i - 1), factorial(n - 1))


def test_c_n1_nu0_equals_rescaled_sequence():
    c = c_coefficients(1, 0, 10)
    assert c[0] == 1
    for i in range(1, 11):
        assert c[i] == theta2_series_coefficient(i - 1) / factorial(i - 1)


def test_c_n1_closed_form_any_nu():
    # c_i^{(nu,1)} = (-1)^i B_{2i}(nu+1/2)/i!
    for nu in (0, 1, 2):
        c = c_coefficients(1, nu, 8)
        for i in range(1, 9):
            expected = Fraction((-1) ** i) * bernoulli_polynomial(2 * i, nu + Fraction(1, 2)) / factorial(i)
            assert c[i] == expected


def test_unsupported_nu_gate():
    with pytest.raises(UnsupportedNu):
        c_coefficients(2, Fraction(1, 2), 4)
    with pytest.raises(UnsupportedNu):
        b_coefficients(1, Fraction(3, 2), 2)


@pytest.mark.parametrize("nu", [np.float32(1), np.float64(2), np.int32(1), Fraction(2)],
                         ids=lambda x: type(x).__name__)
def test_a_numpy_or_fraction_nu_reads_as_its_value(nu):
    value = nu.item() if isinstance(nu, np.generic) else nu
    assert c_coefficients(1, nu, 4) == c_coefficients(1, value, 4)
    assert b_coefficients(2, nu, 4) == b_coefficients(2, value, 4)


@pytest.mark.parametrize("nu", [inf, -inf, nan, np.float32(inf), np.float64(nan), 1j, "1"],
                         ids=["inf", "-inf", "nan", "float32-inf", "float64-nan", "complex", "str"])
def test_a_non_finite_or_non_real_nu_is_a_value_error_naming_it(nu):
    for call in (c_coefficients, b_coefficients, heat_coeff_table):
        with pytest.raises(ValueError, match="^nu must be a finite real number"):
            call(1, nu, 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_b_table_is_prefix_stable(n):
    # verify's trace suite slices one J = 8 table to J = 4 and 6
    for nu in range(4):
        table = b_coefficients(n, nu, 8)
        for J in range(9):
            assert table[: J + 1] == b_coefficients(n, nu, J)


def test_b_volume_term():
    # j = 0 collapses to the volume: b_0 = (4 pi)^n / n!
    for n, nu in [(1, 0), (1, 3), (2, 1), (3, 0)]:
        factor, power = b_coefficients(n, nu, 0)[0]
        assert power == n
        assert factor == Fraction(4**n, factorial(n))


def test_b_n1_nu1_j1():
    # by hand: 4 pi [(1/4+1) - B_2(3/2)] with B_2(3/2) = 11/12 -> 4 pi / 3
    assert bernoulli_polynomial(2, Fraction(3, 2)) == Fraction(11, 12)
    factor, power = b_coefficients(1, 1, 1)[1]
    assert (factor, power) == (Fraction(4, 3), 1)


def test_nu_zero_u_frozen_values():
    u1 = nu_zero_u(1, 4)
    assert u1[0] == 1
    assert u1[1] == Fraction(1, 12)  # Btilde_0
    u2 = nu_zero_u(2, 4)
    assert u2[:2] == [1, 0]
    assert u2[2] == Fraction(1, 2) * bernoulli_number(4)  # (-1)^2 B_4 / (2*0!)
    u3 = nu_zero_u(3, 2)
    assert u3 == [1, Fraction(-1, 4), Fraction(1, 32)]
    u4 = nu_zero_u(4, 3)
    assert u4 == [1, Fraction(-2, 3), Fraction(1, 6), 0]
    with pytest.raises(UnsupportedN):
        nu_zero_u(5, 3)


def test_nu_zero_collapse_n1_n3():
    for n in (1, 3):
        assert c_coefficients(n, 0, 12) == nu_zero_u(n, 12)


def test_nu_zero_n2_documented_sign_erratum():
    # the printed u^2 tail carries the theta_3 sign erratum: c_i = -u_i, i >= 2,
    # and the computed values obey the corrected closed form
    c = c_coefficients(2, 0, 12)
    u = nu_zero_u(2, 12)
    assert c[:2] == u[:2]
    for i in range(2, 13):
        assert c[i] == -u[i]
        assert c[i] == Fraction((-1) ** (i - 1)) * bernoulli_number(2 * i) / (i * factorial(i - 2))


def test_nu_zero_n4_head_matches_tail_flips():
    c = c_coefficients(4, 0, 8)
    u = nu_zero_u(4, 8)
    assert c[:4] == u[:4]
    for i in range(4, 9):
        assert c[i] == -u[i]


def test_printed_variant_reproduces_published_n2_table():
    # printed=True is the as-published recurrence; at nu=0 it regenerates u^2
    printed = c_coefficients(2, 0, 10, printed=True)
    assert printed == nu_zero_u(2, 10)


def test_printed_variant_odd_n_differs_only_in_tail():
    exact = c_coefficients(3, 1, 6)
    printed = c_coefficients(3, 1, 6, printed=True)
    assert exact[:3] == printed[:3]
    assert exact[3:] != printed[3:]


# as-printed odd-n tails (transposed 1/q! weights) for nu >= 1, exact
PRINTED_ODD_N = {
    (3, 1): ["1/1", "-5/4", "9/32", "2371/16128", "-4783/645120", "5263/315392",
             "35732513/3542482944"],
    (3, 2): ["1/1", "-17/4", "225/32", "64523/80640", "-3821311/645120", "11724903/1576960",
             "-98785477619/17712414720"],
    (5, 1): ["1/1", "-9/4", "49/32", "-121/384", "75/2048", "3455563/97320960",
             "3579122377/42509795328"],
    (5, 2): ["1/1", "-21/4", "329/32", "-3229/384", "3675/2048", "3292874047/97320960",
             "-3214070982383/42509795328"],
}


@pytest.mark.parametrize("n,nu", sorted(PRINTED_ODD_N))
def test_printed_variant_odd_n_exact_values(n, nu):
    printed = c_coefficients(n, nu, 6, printed=True)
    assert [rational_str(x) for x in printed] == PRINTED_ODD_N[(n, nu)]


TAIL = "theorem tail formula as printed"
HEAD = "published n=4 head table"
U = "published nu=0 reduction u-table"

# (index, computed, paper_printed, origin) in report order, J = 5
N4_DIFFS = {
    0: [(4, "103/15120", "-103/15120", TAIL), (5, "551/83160", "-551/83160", TAIL),
        (4, "103/15120", "-103/15120", U), (5, "551/83160", "-551/83160", U)],
    1: [(4, "289/15120", "-289/15120", TAIL), (5, "491/33264", "-491/33264", TAIL),
        (1, "-5/3", "-1/1", HEAD), (2, "2/3", "1/3", HEAD)],
    2: [(4, "2497/2160", "-2497/2160", TAIL), (5, "2219/11880", "-2219/11880", TAIL),
        (1, "-14/3", "-4/3", HEAD), (2, "49/6", "1/6", HEAD), (3, "-6/1", "1/1", HEAD)],
    3: [(4, "2067169/15120", "1561631/15120", TAIL),
        (5, "-19631489/166320", "-20285311/166320", TAIL),
        (1, "-29/3", "-5/3", HEAD), (2, "122/3", "-1/3", HEAD), (3, "-96/1", "4/1", HEAD)],
}


@pytest.mark.parametrize("nu", sorted(N4_DIFFS))
def test_heat_coeff_table_n4_reported_diffs_exact(nu):
    diffs = heat_coeff_table(4, nu, 5).paper_reported_diffs
    assert list(diffs) == [
        {"quantity": "c", "index": i, "computed": ours, "paper_printed": theirs, "origin": origin}
        for i, ours, theirs, origin in N4_DIFFS[nu]
    ]


def test_asymptotic_trace_leading_term():
    # J = 0: (4 pi t)^{-n} (4 pi)^n / n! = 1/(n! t^n)
    for n in (1, 2, 3):
        t = 0.37
        assert asymptotic_trace(n, 0, t, 0) == pytest.approx(1.0 / (factorial(n) * t**n))
    with pytest.raises(NonPositiveTime):
        asymptotic_trace(1, 0, 0.0, 4)


def test_asymptotic_trace_checks_time_before_building_the_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("b_coefficients built before t was checked")

    monkeypatch.setattr(heatcoeff, "b_coefficients", no_table)
    for t in (0.0, -1.0, nan, inf):
        with pytest.raises(NonPositiveTime):
            asymptotic_trace(1, 0, t, 40)


def test_asymptotic_sum_outside_binary64_is_typed():
    # a coefficient past binary64, and (4 pi t)^200 underflowing to 0.0
    with pytest.raises(Binary64Overflow, match="b_j t\\^j"):
        asymptotic_sum(1, [(Fraction(1), 1), (Fraction(10) ** 400, 1)], 0.1)
    with pytest.raises(Binary64Overflow, match="\\(4 pi t\\)\\^\\{-n\\}"):
        asymptotic_sum(200, [(Fraction(1), 200)], 0.001)
    # in range, the same table gives a value
    assert asymptotic_sum(1, [(Fraction(1), 1)], 0.1) == pi / (4 * pi * 0.1)


@pytest.mark.parametrize("n,nu",[(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)])
def test_asymptotic_trace_approximates_direct(n, nu):
    t = 0.05
    direct = trace_direct(n, 2 * nu, t)
    asym = asymptotic_trace(n, nu, t, 8)
    # J=8 truncation at t=0.05 sits near the binary64 noise floor; 1e-10
    # relative is already far below any coefficient-level mistake
    assert asym == pytest.approx(direct, rel=1e-10)


def test_heat_coeff_table_diffs():
    table = heat_coeff_table(2, 0, 6)
    assert table.c[0] == 1
    payload = table.to_json_dict()
    assert payload["n"] == 2 and payload["twoNu"] == 0 and payload["J"] == 6
    assert payload["c"][0] == "1/1"
    assert payload["b"][0] == {"factor": "8/1", "piPower": 2}
    # the printed-tail and u-table discrepancies are reported
    origins = {d["origin"] for d in payload["paper_reported_diffs"]}
    assert "theorem tail formula as printed" in origins
    assert "published nu=0 reduction u-table" in origins
    json.dumps(payload)  # JSON-serializable


def test_heat_coeff_table_n4_head_diffs():
    # at nu=1 the published c_3 = nu(nu^2-1)/6 = 0 agrees by accident
    table = heat_coeff_table(4, 1, 4)
    head_diffs = [d for d in table.paper_reported_diffs if d["origin"] == "published n=4 head table"]
    assert {d["index"] for d in head_diffs} == {1, 2}
    table2 = heat_coeff_table(4, 2, 3)
    head_diffs2 = [d for d in table2.paper_reported_diffs if d["origin"] == "published n=4 head table"]
    assert {d["index"] for d in head_diffs2} == {1, 2, 3}


def test_heat_coeff_table_n3_no_spurious_diffs():
    # odd n, nu>=0: head matches; only the statement-form tail transposition shows up
    table = heat_coeff_table(3, 0, 6)
    assert all(d["origin"] == "theorem tail formula as printed"
               for d in table.paper_reported_diffs)


def test_b_rationality_and_scaling():
    # every b_j / pi^n exactly rational, and b matches its defining sum
    n, nu, J = 3, 2, 6
    c = c_coefficients(n, nu, J)
    b = b_coefficients(n, nu, J)
    shift = Fraction(n * n, 4) + nu * nu
    for j, (factor, power) in enumerate(b):
        assert power == n
        expected = Fraction(4**n, factorial(n)) * sum(
            shift ** (j - i) * c[i] / factorial(j - i) for i in range(j + 1))
        assert factor == expected


@pytest.mark.parametrize("n,nu,J", [(1, 0, 12), (2, 1, 10), (3, 2, 8), (4, 0, 9), (6, 3, 20),
                                    (5, 1, 3)])
def test_table_evaluates_each_bernoulli_value_once(monkeypatch, n, nu, J):
    # the theorem and the as-printed tails share one B_{2k}(arg) per k = 1..J
    import projheat.heatcoeff

    args = []

    def counting(d, x):
        args.append((d, x))
        return bernoulli_polynomial(d, x)

    monkeypatch.setattr(projheat.heatcoeff, "bernoulli_polynomial", counting)
    table = heat_coeff_table(n, nu, J)
    assert len(args) <= J and len(set(args)) == len(args)
    assert list(table.c) == c_coefficients(n, nu, J)


def test_asymptotic_trace_value_pipeline():
    # float evaluation equals the explicit formula
    n, nu, J, t = 2, 1, 4, 0.1
    b = b_coefficients(n, nu, J)
    expected = sum(float(f) * pi**p * t**j for j, (f, p) in enumerate(b)) / (4 * pi * t) ** n
    assert asymptotic_trace(n, nu, t, J) == expected
