"""Exact heat-trace coefficients c_i^{(nu,n)} and b_j^{(nu,n)}.

The head segment (i < n) comes from the multiplicity decomposition; the
tail (i >= n) from an n-term Bernoulli-polynomial recurrence, with the
parity of n selecting the Bernoulli argument: nu + 1/2 for odd n (the
half-integer theta lattice) and nu for even n (the integer lattice).

Both recurrences carry an overall (-1)^{i-n+1}/(i-n)! and weights
1/((i-q)(n-1-q)!) on the previously computed c_q. This is the form forced
by the trace ground truth (and by the proof's ledger in the odd case); the
published statement differs in two places (1/q! weights in the odd tail,
B_{2k}(nu) - 2B_{2k} in place of B_{2k}(nu) in the even tail) and those
as-printed variants are available behind c_coefficients(printed=True), so
discrepancy reports can show computed-versus-printed values side by side.

Both exact passes are one truncated series product in integers
(exactnum._Series: integer numerators over one common denominator). The
tail c_n..c_J is the weighted head times the series of beta_k =
B_{2k}(arg)/k, and b_0..b_J is c(x) e^{(n^2/4 + nu^2) x}. The head and the
weighted head are read as integers from spectrum._poly_dimension_row, and
beta's numerators come from exactnum's cached Bernoulli rows by Horner's
rule, once per table for both the theorem and the printed tails; each pass
builds one Fraction per coefficient it returns, where a term-by-term sum
would take O(J n) and O(J^2) Fraction operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm, pi

from .errors import Binary64Overflow, UnsupportedN, UnsupportedNu, binary64_range
from .exactnum import (
    _Series,
    _bernoulli_row,
    _homogeneous_horner,
    _integer,
    _rational,
    bernoulli_number,
    rational_str,
    theta2_series_coefficient,
)
from .spectrum import _poly_dimension_row
from .theta import _require_time

__all__ = [
    "HeatCoeffTable",
    "c_head",
    "c_coefficients",
    "b_from_c",
    "b_coefficients",
    "nu_zero_u",
    "asymptotic_sum",
    "asymptotic_trace",
    "printed_tau_n4",
    "heat_coeff_table",
]


def _check_args(n: int, nu, J: int) -> tuple[int, int, int]:
    """n >= 1 and J >= 0 by exactnum's integer rule, and nu by its rational rule, as ints;
    a nu that is not a whole number >= 0 is UnsupportedNu."""
    n, J, nu = _integer("n", n, 1), _integer("J", J, 0), _rational("nu", nu)
    if nu.denominator != 1 or nu < 0:
        raise UnsupportedNu(f"parity-branch coefficients need integer nu >= 0, got {nu}")
    return n, int(nu), J


def c_head(gamma) -> list[Fraction]:
    """Head c_i = gamma_{n-1-i} (n-1-i)!/(n-1)!, i < n, of a decomposition list."""
    n = len(gamma)
    return [gamma[n - 1 - i] * Fraction(factorial(n - 1 - i), factorial(n - 1)) for i in range(n)]


def _tail_beta(n: int, nu: int, J: int) -> _Series:
    """beta_k = B_{2k}(arg)/k, k = 1..J, with beta_0 = 0: the series the tail multiplies.

    arg = p/q is nu + 1/2 for odd n and nu for even n. With L_d the common
    denominator of _bernoulli_row(d), L_d q^{2k} B_{2k}(arg) is the integer
    _homogeneous_horner(row of 2k, p, q), and L_{2k} divides L_{2J}, so every
    beta_k is an integer over the one denominator L_{2J} q^{2J} lcm(1..J).
    """
    p, q = (2 * nu + 1, 2) if n % 2 else (nu, 1)
    den = _bernoulli_row(2 * J)[1] * q ** (2 * J) * lcm(*range(1, J + 1))
    nums = [0]
    for k in range(1, J + 1):
        row, common = _bernoulli_row(2 * k)
        nums.append(_homogeneous_horner(row, p, q) * (den // (common * q ** (2 * k) * k)))
    return _Series(nums, den)


def _c_with_tail(n: int, nu: int, J: int, beta: _Series, printed: bool) -> list[Fraction]:
    """c_0..c_J from the head and the tail recurrence over beta = _tail_beta(n, nu, J).

    With A the integer row of _poly_dimension_row(n, 2nu) and
    a_q = 4^{n-1-q} A_{n-1-q}, the head is c_q = a_q (n-1-q)!/D, D = 4^{n-1} (n-1)!.
    The tail is one integer series product: c_i, i >= n, is (-1)^{i-n+1}/(i-n)!
    times the x^i coefficient of h(x) beta(x), with the weighted head
    h_q = c_q/(n-1-q)! = a_q/D (c_q/q! in the printed odd variant), zero past
    q = n-1. The printed even variant subtracts 2 B_{2k}/k from beta_k.
    """
    row, _ = _poly_dimension_row(n, 2 * nu)
    den = 4 ** (n - 1) * factorial(n - 1)
    a = [row[n - 1 - q] * 4 ** (n - 1 - q) for q in range(min(n, J + 1))]
    c = [Fraction(aq * factorial(n - 1 - q), den) for q, aq in enumerate(a)]
    if J < n:
        return c
    pad = [0] * (J + 1 - n)
    if printed and n % 2:
        top = factorial(n - 1)
        head = _Series([aq * factorial(n - 1 - q) * (top // factorial(q))
                        for q, aq in enumerate(a)] + pad, den * top)
    else:
        head = _Series(a + pad, den)
    if printed and not n % 2:
        nums = beta.nums[:1]
        for k, num in enumerate(beta.nums[1:], 1):
            b = bernoulli_number(2 * k)
            nums.append(num - 2 * b.numerator * (beta.den // (b.denominator * k)))
        beta = _Series(nums, beta.den)
    tail = head * beta
    c.extend(Fraction((-1) ** (i - n + 1) * tail.nums[i], tail.den * factorial(i - n))
             for i in range(n, J + 1))
    return c


def c_coefficients(n: int, nu, J: int, printed: bool = False) -> list[Fraction]:
    """Exact c_0..c_J for integer nu >= 0.

    printed=True reproduces the published tail formulas instead (odd n: the
    statement's transposed 1/q! weights; even n: B_{2k}(nu) - 2B_{2k});
    used only for discrepancy reporting.
    """
    n, nu, J = _check_args(n, nu, J)
    return _c_with_tail(n, nu, J, _tail_beta(n, nu, J), printed)


def b_from_c(n: int, nu: int, c, base: Fraction | None = None) -> list[tuple[Fraction, int]]:
    """b_j = ((4 pi)^n / n!) sum_{i<=j} base^{j-i} c_i / (j-i)!, as (factor, n).

    That sum is the x^j coefficient of c(x) e^{base x}, formed as one integer
    series product over one common denominator, with one Fraction per j.
    The theorem's base is n^2/4 + nu^2; other bases serve discrepancy reports.
    """
    n, nu = _integer("n", n, 1), _integer("nu", nu, 0)
    if base is None:
        base = Fraction(n * n, 4) + nu * nu
    product = _Series.from_fractions(c) * _Series.exp(base, len(c))
    den = factorial(n) * product.den
    return [(Fraction(4**n * num, den), n) for num in product.nums]


def b_coefficients(n: int, nu, J: int) -> list[tuple[Fraction, int]]:
    """b_j as (rational factor, pi power n): b_j = factor * pi^n.

    b_j = ((4 pi)^n / n!) sum_{i<=j} (n^2/4 + nu^2)^{j-i} c_i / (j-i)!.
    """
    n, nu_int, J = _check_args(n, nu, J)
    return b_from_c(n, nu_int, c_coefficients(n, nu_int, J))


def nu_zero_u(n: int, J: int) -> list[Fraction]:
    """The published nu = 0 closed forms u_i^n, n in {1,2,3,4}, as printed.

    Pure test vectors: the n=2 tail (and the n=4 tail) carry a sign erratum
    relative to the trace asymptotics, which the comparison suites report.
    """
    n, _, J = _check_args(n, 0, J)
    if n not in (1, 2, 3, 4):
        raise UnsupportedN(f"printed u-tables exist for n in 1..4, got {n}")
    u: list[Fraction] = []
    for i in range(J + 1):
        if n == 1:
            u.append(Fraction(1) if i == 0 else theta2_series_coefficient(i - 1) / factorial(i - 1))
        elif n == 2:
            if i == 0:
                u.append(Fraction(1))
            elif i == 1:
                u.append(Fraction(0))
            else:
                u.append(Fraction((-1) ** i) * bernoulli_number(2 * i) / (i * factorial(i - 2)))
        elif n == 3:
            if i <= 2:
                u.append((Fraction(1), Fraction(-1, 4), Fraction(1, 32))[i])
            else:
                bt = theta2_series_coefficient
                acc = bt(i - 1) + bt(i - 2) / 2 + bt(i - 3) / 16
                u.append(acc / (2 * factorial(i - 3)))
        else:
            if i <= 3:
                u.append((Fraction(1), Fraction(-2, 3), Fraction(1, 6), Fraction(0))[i])
            else:
                acc = Fraction(0)
                for p in range(4):
                    acc += u[3 - p] * bernoulli_number(2 * (p + i - 3)) / ((i + p - 3) * factorial(p))
                u.append(Fraction((-1) ** (i - 4)) * acc / factorial(i - 4))
    return u


def asymptotic_sum(n: int, b, t: float) -> float:
    """(4 pi t)^{-n} sum_j b_j t^j for a table b of (factor, n) pairs, in binary64.

    A term or (4 pi t)^{-n} outside binary64 raises Binary64Overflow.
    """
    _require_time(t)
    n = _integer("n", n, 1)
    with binary64_range("a term b_j t^j or (4 pi t)^n"):
        total = sum(float(factor) * pi**n * t**j for j, (factor, _) in enumerate(b))
        denominator = (4 * pi * t) ** n
    if denominator == 0.0:
        raise Binary64Overflow("(4 pi t)^{-n} exceeds the binary64 range")
    return total / denominator


def asymptotic_trace(n: int, nu, t: float, J: int) -> float:
    """(4 pi t)^{-n} sum_{j<=J} b_j t^j from the exact coefficient table."""
    _require_time(t)
    return asymptotic_sum(n, b_coefficients(n, nu, J), t)


@dataclass(frozen=True)
class HeatCoeffTable:
    """Exact coefficient table with the as-printed discrepancy report."""

    n: int
    two_nu: int
    J: int
    c: tuple[Fraction, ...]
    b: tuple[tuple[Fraction, int], ...]
    paper_reported_diffs: tuple[dict, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "twoNu": self.two_nu,
            "J": self.J,
            "c": [rational_str(x) for x in self.c],
            "b": [{"factor": rational_str(f), "piPower": p} for f, p in self.b],
            "paper_reported_diffs": list(self.paper_reported_diffs),
        }


def printed_tau_n4(nu: int) -> tuple[Fraction, ...]:
    """The published tau^(nu,4), as printed: odd in nu, so correct only at nu = 0."""
    nu = _integer("nu", nu, 0)
    return (Fraction(nu) * (nu * nu - 1), Fraction(-nu * nu + 2 * nu + 1), Fraction(-nu - 2),
            Fraction(1))


def heat_coeff_table(n: int, nu, J: int) -> HeatCoeffTable:
    """Assemble the authoritative table plus computed-vs-printed diffs."""
    n, nu_int, J = _check_args(n, nu, J)
    beta = _tail_beta(n, nu_int, J)  # shared by the theorem and the printed tails
    c = _c_with_tail(n, nu_int, J, beta, printed=False)
    published = [(_c_with_tail(n, nu_int, J, beta, printed=True),
                  "theorem tail formula as printed")]
    if n == 4:
        published.append((c_head(printed_tau_n4(nu_int)), "published n=4 head table"))
    if nu_int == 0 and n in (1, 2, 3, 4):
        published.append((nu_zero_u(n, J), "published nu=0 reduction u-table"))
    diffs = tuple(
        {"quantity": "c", "index": i, "computed": rational_str(ours),
         "paper_printed": rational_str(theirs), "origin": origin}
        for values, origin in published
        for i, (ours, theirs) in enumerate(zip(c, values))
        if ours != theirs
    )
    return HeatCoeffTable(n=n, two_nu=2 * nu_int, J=J, c=tuple(c),
                          b=tuple(b_from_c(n, nu_int, c)), paper_reported_diffs=diffs)
