"""Seeded workloads: the CLI calls each one makes and the checks on their output.

An op is one call of ``projheat.cli.main(argv)``. A workload's generator
sees only the benchmark seed; the program sees only the argv lists it
produces. Every check here runs outside the timed interval and outside the
traced region.

Why each workload exists (see README.md for the metric map):

* ``verify_all``: ``projheat verify`` over every scope. The only workload
  that runs ``kernels.monopole_norm_sq``; quadrature reaches it through the
  ``heat`` suite and mpmath through the ``trace`` suite.
* ``kernel_eval``: seeded ``heat-eval`` calls (series, integral or both) and
  a minority of ``kernel`` calls. Quadrature dominates the integral ops, and
  the varied ``--nodes`` spreads the number of distinct quadrature rules.
* ``tables_trace``: the exact tables (``coeffs``, ``dims``, ``decomp``) and
  ``trace-compare``. It never reaches ``quadrature`` or ``kernels``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, pi
from typing import Callable, Iterator

# The package's own tolerances: verify's heat suite (series vs integral,
# also the CLI's relDifference) and its zaremba suite.
KERNEL_REL_TOL = 1e-6
ZAREMBA_REL_TOL = 1e-10
# trace-compare: scaledErr = absErr (4 pi t)^n / t^(J+1) tends to |b_{J+1}|,
# the first omitted coefficient, as t -> 0; over n <= 6, nu <= 3, J <= 8,
# t <= 0.1 it stays within [0.5, 3.2] |b_{J+1}|. A row passes when
# scaledErr <= TRACE_SCALED_FACTOR |b_{J+1}|, or when absErr is already at
# binary64 rounding level of the trace, where scaledErr only amplifies
# rounding and says nothing about truncation.
TRACE_SCALED_FACTOR = 8.0
TRACE_ROUNDING_REL = 1e-11

# Verdicts of `projheat verify --scope all`: every identity PASSes and the
# documented errata of the published tables are WARNs.
EXPECTED_VERIFY = (
    ("dims.triple_agreement", "PASS"),
    ("paper8.gamma_n1", "PASS"),
    ("paper8.tau_n2", "PASS"),
    ("paper8.c_head_n3", "PASS"),
    ("paper8.gamma_n3_labels", "WARN"),
    ("paper8.tau_n4_nu0", "PASS"),
    ("paper8.tau_n4_nu1", "WARN"),
    ("paper8.tau_n4_nu2", "WARN"),
    ("paper8.u_n1", "PASS"),
    ("paper8.u_n3", "PASS"),
    ("paper8.u_n2", "WARN"),
    ("paper8.u_n4_head", "PASS"),
    ("paper8.u_n4_tail", "WARN"),
    ("paper8.b_n2_base", "WARN"),
    ("paper8.c_head_n4_nu1", "WARN"),
    ("zaremba.lemma_n1", "PASS"),
    ("heat.series_vs_integral", "PASS"),
    ("heat.irhk_hi_nu0", "PASS"),
    ("trace.scaled_error_order", "PASS"),
    ("trace.binary64_vs_mp", "PASS"),
    ("theta.theta2_asymptotics", "PASS"),
    ("theta.theta3_asymptotics", "PASS"),
    ("theta.theta3_printed_sign", "WARN"),
    ("bernoulli.half_argument_rescaled", "PASS"),
    ("bernoulli.half_argument_textbook", "PASS"),
    ("bernoulli.power_sums", "PASS"),
    ("bernoulli.kernel_diagonal_volume", "PASS"),
    ("monopole.normalization", "PASS"),
)


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv and the values the generator drew for it."""

    command: str
    argv: tuple[str, ...]
    params: dict = field(compare=False)


class CheckFailed(Exception):
    """An op's output is wrong; the message says how."""


# ---------------------------------------------------------------- inputs

def _point_text(p: tuple[complex, ...]) -> str:
    return ",".join(f"{c.real:.6f}{c.imag:+.6f}j" for c in p)


def _fs_distance(z: tuple[complex, ...], w: tuple[complex, ...]) -> float:
    num = 1.0 + sum(a * b.conjugate() for a, b in zip(z, w))
    az = 1.0 + sum(abs(a) ** 2 for a in z)
    aw = 1.0 + sum(abs(b) ** 2 for b in w)
    return math.acos(math.sqrt(min(1.0, abs(num) ** 2 / (az * aw))))


def _point_pair(rng: random.Random, n: int) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Points drawn as verify's heat suite draws them: N(0, 0.6) coordinates,
    Fubini-Study distance below 1.2 (rounded to the digits the CLI receives)."""
    while True:
        z, w = (tuple(complex(round(rng.gauss(0.0, 0.6), 6), round(rng.gauss(0.0, 0.6), 6))
                      for _ in range(n)) for _ in range(2))
        if _fs_distance(z, w) < 1.2:
            return z, w


# Ops come in shuffled blocks of fixed composition: every block holds one op
# per cell of a grid over the parameters that set an op's cost (kind, n,
# --nodes, the stratum of t or J), and the seed draws the rest (the value
# inside each stratum, nu, the points, the order). Op latency spans two
# orders of magnitude across cells, so independent draws would let the mix
# of cells, and every latency metric with it, move from seed to seed.

def _log_draw(rng: random.Random, lo: float, hi: float, k: int, i: int) -> float:
    """Log-uniform draw from the i-th of k equal log-width strata of [lo, hi]."""
    a, b = math.log10(lo), math.log10(hi)
    return float(f"{10 ** (a + (b - a) * (i + rng.random()) / k):.4g}")


def _deck(rng: random.Random, values, k: int) -> list:
    """k items cycling through values, in random order."""
    out = [values[i % len(values)] for i in range(k)]
    rng.shuffle(out)
    return out


def _shuffled(rng: random.Random, cells: list) -> list:
    rng.shuffle(cells)
    return cells


def verify_all_ops(rng: random.Random) -> Iterator[Op]:
    while True:
        seed = rng.randrange(1, 2**31)
        yield Op("verify", ("verify", "--scope", "all", f"--seed={seed}"), {"seed": seed})


def kernel_eval_ops(rng: random.Random) -> Iterator[Op]:
    # block of 42: per method, 12 cells; integral and both over
    # --nodes x 3 strata of t, series over n x 3 strata of t; 6 kernel calls
    nodes_t = [(nd, i) for nd in (32, 64, 128, 256) for i in range(3)]
    while True:
        cells = ([("series", n, None, i) for n in (1, 2, 3, 4) for i in range(3)]
                 + [("integral", None, nd, i) for nd, i in nodes_t]
                 + [("both", None, nd, i) for nd, i in nodes_t]
                 + [("kernel", None, None, None)] * 6)
        ns, two_nus = _deck(rng, (1, 2, 3, 4), 24), _deck(rng, range(5), 36)
        nodes = _deck(rng, (32, 64, 128, 256), 12)
        for method, n, nd, i in _shuffled(rng, cells):
            if method == "kernel":
                n = 1 if rng.random() < 0.5 else rng.randint(2, 4)
                two_nu, m = rng.randint(0, 4), rng.randint(0, 6)
                z, w = _point_pair(rng, n)
                yield Op("kernel", ("kernel", f"--n={n}", f"--two-nu={two_nu}", f"--m={m}",
                                    f"--z={_point_text(z)}", f"--w={_point_text(w)}"),
                         {"n": n, "two_nu": two_nu, "m": m, "z": z, "w": w})
                continue
            n = n or ns.pop()
            nd = nd or nodes.pop()
            two_nu, t = two_nus.pop(), _log_draw(rng, 1e-3, 1.0, 3, i)
            z, w = _point_pair(rng, n)
            yield Op("heat-eval", ("heat-eval", f"--n={n}", f"--two-nu={two_nu}", f"--t={t!r}",
                                   f"--z={_point_text(z)}", f"--w={_point_text(w)}",
                                   f"--method={method}", f"--nodes={nd}"),
                     {"n": n, "two_nu": two_nu, "t": t, "z": z, "w": w, "method": method,
                      "nodes": nd})


T_THIRDS = (-5, -11 / 3, -7 / 3, -1)  # log10 t: edges of the thirds of [1e-5, 1e-1]


def tables_trace_ops(rng: random.Random) -> Iterator[Op]:
    # block of 54: coeffs over n x 4 strata of J; trace-compare over n x 3
    # strata of the smallest t (the one that sets its cost); 6 dims, 6 decomp
    while True:
        cells = ([("coeffs", n, i) for n in range(1, 7) for i in range(4)]
                 + [("trace-compare", n, i) for n in range(1, 7) for i in range(3)]
                 + [("dims", n, None) for n in range(1, 7)]
                 + [("decomp", None, None)] * 6)
        fmts = _deck(rng, ("json", "json", "csv"), len(cells))
        nus, js = _deck(rng, range(4), 42), _deck(rng, (4, 6, 8), 18)
        for (kind, n, i), fmt in zip(_shuffled(rng, cells), fmts):
            if kind == "coeffs":
                nu, J = nus.pop(), rng.randint(8 + 8 * i, 15 + 8 * i + (i == 3))
                yield Op(kind, (kind, f"--n={n}", f"--nu={nu}", f"--J={J}", f"--format={fmt}"),
                         {"n": n, "nu": nu, "J": J, "format": fmt})
            elif kind == "trace-compare":
                # three t log-uniform in [1e-5, 1e-1], one per third of the range;
                # the lowest third is split again into 3 strata, one per cell
                nu, J = nus.pop(), js.pop()
                ts = [_log_draw(rng, 10 ** T_THIRDS[2], 10 ** T_THIRDS[3], 1, 0),
                      _log_draw(rng, 10 ** T_THIRDS[1], 10 ** T_THIRDS[2], 1, 0),
                      _log_draw(rng, 10 ** T_THIRDS[0], 10 ** T_THIRDS[1], 3, i)]
                yield Op(kind, (kind, f"--n={n}", f"--nu={nu}", f"--J={J}",
                                f"--t={','.join(repr(t) for t in ts)}", f"--format={fmt}"),
                         {"n": n, "nu": nu, "J": J, "ts": ts, "format": fmt})
            elif kind == "dims":
                two_nu, m_max = rng.randint(0, 8), rng.randint(5, 40)
                yield Op(kind, (kind, f"--n={n}", f"--two-nu={two_nu}", f"--m-max={m_max}",
                                f"--format={fmt}"),
                         {"n": n, "two_nu": two_nu, "m_max": m_max, "format": fmt})
            else:
                n, two_nu = rng.randint(1, 8), rng.randint(0, 8)
                yield Op(kind, (kind, f"--n={n}", f"--two-nu={two_nu}", f"--format={fmt}"),
                         {"n": n, "two_nu": two_nu, "format": fmt})


# ---------------------------------------------------------------- checks

def _reject_constant(token: str):
    raise CheckFailed(f"non-finite number {token} in JSON output")


def _load_json(out: str):
    return json.loads(out, parse_constant=_reject_constant)


def _load_csv(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _finite(x, what: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise CheckFailed(f"non-finite {what}: {x}")
    return x


def _dimension(n: int, two_nu: int, m: int) -> int:
    """dim A_m^nu = (2m+n+2nu)/n C(m+n-1, n-1) C(m+2nu+n-1, n-1), a binomial form
    the package does not use."""
    return (2 * m + n + two_nu) * comb(m + n - 1, n - 1) * comb(m + two_nu + n - 1, n - 1) // n


def _rel_diff(a: complex, b: complex) -> float:
    return abs(a - b) / (1.0 + abs(a))


def check_verify(p: dict, out: str) -> None:
    payload = _load_json(out)
    got = tuple((c["name"], c["status"]) for c in payload["checks"])
    if got != EXPECTED_VERIFY:
        diff = sorted(set(got) ^ set(EXPECTED_VERIFY))
        raise CheckFailed(f"verdicts differ from the expected list: {diff}")


def check_heat_eval(p: dict, out: str) -> None:
    from projheat.heat import heat_kernel_series

    payload = _load_json(out)
    values = {}
    for method in ("series", "integral"):
        if method in payload:
            v = payload[method]
            values[method] = complex(_finite(v["value"]["re"], method), _finite(v["value"]["im"], method))
            _finite(v["errorBound"], f"{method} errorBound")
    if set(values) != ({"series", "integral"} if p["method"] == "both" else {p["method"]}):
        raise CheckFailed(f"methods {sorted(values)} in output, asked for {p['method']}")
    if p["method"] == "both":
        rel = _finite(payload["relDifference"], "relDifference")
    else:
        ref = heat_kernel_series(p["n"], p["two_nu"], p["t"], p["z"], p["w"], eps=1e-14).value
        if p["method"] == "series":
            # series vs integral is checked on the `both` ops; here the reported
            # bound must cover the change on truncating 1e4 times tighter
            err = abs(values["series"] - ref)
            if err > payload["series"]["errorBound"] + 1e-12 * (1 + abs(ref)):
                raise CheckFailed(f"series moves by {err:.3e} on tighter truncation, "
                                  f"beyond its errorBound")
            return
        rel = _rel_diff(ref, values["integral"])
    if rel > KERNEL_REL_TOL:
        raise CheckFailed(f"series and integral differ by {rel:.3e} (tol {KERNEL_REL_TOL})")


def check_kernel(p: dict, out: str) -> None:
    from projheat.kernels import zaremba_sum_n1

    v = _load_json(out)["value"]
    value = complex(_finite(v["re"], "kernel"), _finite(v["im"], "kernel"))
    n, two_nu, m = p["n"], p["two_nu"], p["m"]
    if n == 1:
        ref = zaremba_sum_n1(two_nu, m, p["z"][0], p["w"][0])
        rel = _rel_diff(ref, value)
        if rel > ZAREMBA_REL_TOL:
            raise CheckFailed(f"kernel differs from the Zaremba sum by {rel:.3e}")
    # Cauchy-Schwarz: |K(z,w)| <= K(z,z) = dim / Vol(P^n), Vol = pi^n / n!
    diag = _dimension(n, two_nu, m) * factorial(n) / pi**n
    if abs(value) > diag * (1 + 1e-9):
        raise CheckFailed(f"|K(z,w)| = {abs(value)} exceeds the diagonal {diag}")


def check_coeffs(p: dict, out: str) -> None:
    n, nu, J = p["n"], p["nu"], p["J"]
    if p["format"] == "json":
        payload = _load_json(out)
        c = [Fraction(s) for s in payload["c"]]
        b = [(Fraction(e["factor"]), e["piPower"]) for e in payload["b"]]
    else:
        rows = _load_csv(out)
        c = [Fraction(r["c"]) for r in rows]
        b = [(Fraction(r["b_factor"]), int(r["b_pi_power"])) for r in rows]
    if len(c) != J + 1 or len(b) != J + 1:
        raise CheckFailed(f"{len(c)} c and {len(b)} b entries for J = {J}")
    if c[0] != 1:
        raise CheckFailed(f"c_0 = {c[0]}, expected 1")
    # b_j = ((4 pi)^n / n!) sum_{i<=j} (n^2/4 + nu^2)^{j-i} c_i / (j-i)!
    shift = Fraction(n * n, 4) + nu * nu
    for j, (factor, power) in enumerate(b):
        want = Fraction(4**n, factorial(n)) * sum(
            shift ** (j - i) * c[i] / factorial(j - i) for i in range(j + 1))
        if factor != want or power != n:
            raise CheckFailed(f"b_{j} = {factor} pi^{power} is not {want} pi^{n} from c")


def check_dims(p: dict, out: str) -> None:
    if p["format"] == "json":
        rows = [(r["m"], r["dimension"]) for r in _load_json(out)["rows"]]
    else:
        rows = [(int(r["m"]), int(r["dimension"])) for r in _load_csv(out)]
    want = [(m, _dimension(p["n"], p["two_nu"], m)) for m in range(p["m_max"] + 1)]
    if rows != want:
        raise CheckFailed(f"dimension rows differ from the binomial form: {rows[:3]}...")


def check_decomp(p: dict, out: str) -> None:
    if p["format"] == "json":
        coeffs = [Fraction(s) for s in _load_json(out)["coeffs"]]
    else:
        coeffs = [Fraction(r["coefficient"]) for r in _load_csv(out)]
    n, nu = p["n"], Fraction(p["two_nu"], 2)
    if len(coeffs) != n:
        raise CheckFailed(f"{len(coeffs)} coefficients for n = {n}")
    for r in (Fraction(1, 3), Fraction(2, 3), Fraction(5, 3), Fraction(7, 2)):
        prod = Fraction(1)
        for j in range(1, n):
            prod *= (r - Fraction(n, 2) - nu + j) * (r - Fraction(n, 2) + nu + j)
        if sum(cf * r ** (2 * k) for k, cf in enumerate(coeffs)) != prod:
            raise CheckFailed(f"sum c_p r^(2p) differs from the multiplicity product at r = {r}")


@lru_cache(maxsize=None)
def _first_omitted(n: int, nu: int, J: int) -> float:
    """|b_{J+1}| of the exact coefficient table (coeffs ops check its b-from-c)."""
    from projheat.heatcoeff import b_coefficients

    factor, power = b_coefficients(n, nu, J + 1)[J + 1]
    return abs(float(factor)) * pi**power


def check_trace_compare(p: dict, out: str) -> None:
    if p["format"] == "json":
        rows = [(r["t"], r["direct"], r["asymptotic"], r["absErr"], r["scaledErr"])
                for r in _load_json(out)["rows"]]
    else:
        rows = [(r["t"], r["direct"], r["asymptotic"], r["abs_err"], r["scaled_err"])
                for r in _load_csv(out)]
    if len(rows) != len(p["ts"]):
        raise CheckFailed(f"{len(rows)} rows for {len(p['ts'])} times")
    bound = TRACE_SCALED_FACTOR * _first_omitted(p["n"], p["nu"], p["J"])
    for want_t, row in zip(p["ts"], rows):
        t, direct, _, abs_err, scaled = (_finite(x, "trace-compare value") for x in row)
        if t != want_t or direct <= 0:
            raise CheckFailed(f"row t = {t}: expected t = {want_t} and a positive trace")
        if scaled > bound and abs_err > TRACE_ROUNDING_REL * direct:
            raise CheckFailed(f"t = {t}: scaledErr {scaled:.3e} > {bound:.3e} "
                              f"and absErr {abs_err:.3e} above rounding level")


CHECKS: dict[str, Callable[[dict, str], None]] = {
    "verify": check_verify,
    "heat-eval": check_heat_eval,
    "kernel": check_kernel,
    "coeffs": check_coeffs,
    "dims": check_dims,
    "decomp": check_decomp,
    "trace-compare": check_trace_compare,
}


def check(op: Op, code, out: str) -> None:
    """Raise CheckFailed unless the op exited 0 with correct, finite output."""
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    try:
        CHECKS[op.command](op.params, out)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from None


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    generate: Callable[[random.Random], Iterator[Op]]
    # Fixed warm-up calls, run untimed before the first timed op.
    warmup: tuple[tuple[str, ...], ...]
    # Traced ops per measured second: the traced run is a fixed op count,
    # so its call counts repeat exactly for a seed.
    traced_ops_per_s: float
    # Whether an op runs threads on every core (verify's suite pool) rather
    # than in the benchmark's thread; host-speed readings (calibrate.py) are
    # then taken the same way.
    threaded_ops: bool = False


WORKLOADS = {
    "verify_all": Workload(
        verify_all_ops,
        warmup=(("verify", "--scope", "paper8"), ("verify", "--scope", "theta")),
        traced_ops_per_s=0.1,
        threaded_ops=True,
    ),
    "kernel_eval": Workload(
        kernel_eval_ops,
        warmup=(("heat-eval", "--n=1", "--two-nu=1", "--t=0.5", "--z=0.1+0.2j", "--w=0.3-0.1j",
                 "--method=both", "--nodes=32"),
                ("kernel", "--n=1", "--two-nu=1", "--m=1", "--z=0.1+0.2j", "--w=0.3-0.1j")),
        traced_ops_per_s=10.0,
    ),
    "tables_trace": Workload(
        tables_trace_ops,
        warmup=(("coeffs", "--n=2", "--nu=1", "--J=6"), ("dims", "--n=2", "--two-nu=1"),
                ("decomp", "--n=3", "--two-nu=2"),
                ("trace-compare", "--n=1", "--nu=0", "--J=4", "--t=0.1")),
        traced_ops_per_s=5.0,
    ),
}
