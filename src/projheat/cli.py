"""Command-line interface: exact tables, kernel evaluations, cross-checks.

The parser converts every flag and range-checks the bounded ones, so a bad
value exits 2 before any computation. Each command returns one record (JSON payload, CSV
header and rows, optionally an exit code), and ``_render`` writes it as JSON
(default) or CSV. Rationals are exact "p/q" strings, floats shortest
round-trip decimals, so identical flags give byte-identical output. Neither
format holds NaN or Infinity; a non-finite value exits 2 instead. Exit
codes: 0 success, 1 verification failure, 2 usage or validation error.

``kernel``, ``heat-eval`` and ``verify`` import their numeric modules when
they run, so ``coeffs``, ``dims``, ``decomp`` and ``trace-compare`` do not
load numpy. No module imports mpmath.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
from fractions import Fraction
from math import pi
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import Binary64Overflow, ProjheatError, binary64_range
from .exactnum import rational_str
from .heatcoeff import asymptotic_sum, b_coefficients, heat_coeff_table
from .spectrum import (
    SpectralPoint,
    decompose_multiplicity,
    dimension_gamma_form,
    dimension_poly_form,
    dimension_product_form,
)
from .theta import KERNEL_EPS, trace_direct

if TYPE_CHECKING:
    from .kernels import KernelEval

__all__ = ["main", "build_parser"]

# verify.SCOPES's keys in order (a test keeps them equal), so that building the
# parser does not import verify; that import does not load numpy, but its
# own module body (~7-10 ms self under python -X importtime on a
# 2-vCPU host) is time that no other command needs.
SCOPE_NAMES = ("dims", "paper8", "zaremba", "heat", "trace", "theta", "bernoulli", "monopole")


class ValidationError(Exception):
    """Bad parameter values (exit 2); no ValueError, so argparse lets it reach main."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _checked(flag: str, parse, ok, what: str):
    """The argparse type of ``flag``: parse the text, then require ``ok(value)``.

    The converter keeps the name of ``parse``, so text that ``parse`` rejects
    stays argparse's usage error ("invalid int value: 'x'").
    """
    def convert(text: str):
        value = parse(text)
        _require(ok(value), f"{flag} must be {what}")
        return value

    convert.__name__ = parse.__name__
    return convert


def _int_at_least(flag: str, low: int):
    return _checked(flag, int, lambda v: v >= low, f">= {low}")


def _positive_float(flag: str):
    return _checked(flag, float, _is_positive, "finite and > 0")


def _is_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def _point(text: str) -> tuple[complex, ...]:
    try:
        point = tuple(complex(tok.strip()) for tok in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse point {text!r}: {exc}") from None
    _require(all(map(cmath.isfinite, point)), f"point {text!r} has a non-finite coordinate")
    return point


def _times(text: str) -> list[float]:
    try:
        ts = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse time list {text!r}: {exc}") from None
    _require(all(map(_is_positive, ts)), "all t values must be finite and > 0")
    return ts


def _coords(point: tuple[complex, ...]) -> list[list[float]]:
    return [[c.real, c.imag] for c in point]


def _kernel_eval_dict(k: KernelEval) -> dict:
    return {"value": {"re": k.value.real, "im": k.value.imag}, "termsUsed": k.terms_used,
            "errorBound": k.error_bound}


def cmd_coeffs(args):
    table = heat_coeff_table(args.n, args.nu, args.J)
    rows = [[j, rational_str(table.c[j]), rational_str(table.b[j][0]), table.b[j][1]]
            for j in range(args.J + 1)]
    return table.to_json_dict(), ["j", "c", "b_factor", "b_pi_power"], rows


def cmd_dims(args):
    rows = []
    for m in range(args.m_max + 1):
        pt = SpectralPoint(args.n, args.two_nu, m)
        g = dimension_gamma_form(pt)
        if not g == dimension_product_form(pt) == dimension_poly_form(pt):
            raise AssertionError(f"dimension formulas disagree at {pt}")
        rows.append([m, g])
    payload = {"n": args.n, "twoNu": args.two_nu, "mMax": args.m_max,
               "rows": [{"m": m, "dimension": d} for m, d in rows]}
    return payload, ["m", "dimension"], rows


def cmd_decomp(args):
    poly = decompose_multiplicity(args.n, Fraction(args.two_nu, 2))
    payload = {"n": args.n, "twoNu": args.two_nu, "parity": poly.parity,
               "coeffs": [rational_str(c) for c in poly.coeffs]}
    return payload, ["p", "coefficient"], [[p, rational_str(c)] for p, c in enumerate(poly.coeffs)]


def cmd_kernel(args):
    from .kernels import reproducing_kernel

    k = reproducing_kernel(args.n, args.two_nu, args.m, args.z, args.w)
    payload = {"n": args.n, "twoNu": args.two_nu, "m": args.m, "z": _coords(args.z),
               "w": _coords(args.w), **_kernel_eval_dict(k)}
    return (payload, ["re", "im", "terms_used", "error_bound"],
            [[k.value.real, k.value.imag, k.terms_used, k.error_bound]])


def cmd_heat_eval(args):
    from .heat import heat_kernel_integral, heat_kernel_series

    n, two_nu, t, z, w = args.n, args.two_nu, args.t, args.z, args.w
    payload = {"n": n, "twoNu": two_nu, "t": t, "z": _coords(z), "w": _coords(w)}
    forms = {"series": lambda: heat_kernel_series(n, two_nu, t, z, w, eps=args.eps),
             "integral": lambda: heat_kernel_integral(n, two_nu, t, z, w)}
    rows, evals = [], {}
    for method, form in forms.items():
        if args.method in (method, "both"):
            k = evals[method] = form()
            payload[method] = _kernel_eval_dict(k)
            rows.append([method, k.value.real, k.value.imag, k.terms_used, k.error_bound])
    if args.method == "both":
        ks, ki = evals["series"].value, evals["integral"].value
        payload["relDifference"] = abs(ks - ki) / (1.0 + abs(ks))
    return payload, ["method", "re", "im", "terms_used", "error_bound"], rows


def cmd_trace_compare(args):
    b = b_coefficients(args.n, args.nu, args.J)
    rows = []
    for t in args.t:
        direct = trace_direct(args.n, 2 * args.nu, t, eps=args.eps)
        asym = asymptotic_sum(args.n, b, t)
        abs_err = abs(direct - asym)
        with binary64_range("the scaled error's (4 pi t)^n / t^{J+1}"):
            scale, power = (4 * pi * t) ** args.n, t ** (args.J + 1)
        if power == 0.0:
            raise Binary64Overflow("the scaled error's t^{-(J+1)} exceeds the binary64 range")
        scaled = abs_err * scale / power
        rows.append([t, direct, asym, abs_err, scaled])
    payload = {"n": args.n, "nu": args.nu, "J": args.J,
               "rows": [dict(zip(("t", "direct", "asymptotic", "absErr", "scaledErr"), r))
                        for r in rows]}
    return payload, ["t", "direct", "asymptotic", "abs_err", "scaled_err"], rows


def cmd_verify(args):
    from .verify import run_verify

    checks = run_verify(args.scope, nmax=args.nmax, seed=args.seed)
    counts = {s.lower(): sum(c.status == s for c in checks) for s in ("PASS", "WARN", "FAIL")}
    payload = {"scope": args.scope, "checks": [c.to_dict() for c in checks], "counts": counts}
    return (payload, ["name", "status", "detail"],
            [[c.name, c.status, c.detail] for c in checks], 1 if counts["fail"] else 0)


def _render(fmt: str, out: str, payload, header: list[str], rows: list[list]) -> None:
    """Write a record as JSON or CSV to stdout or ``out``; a non-finite float raises."""
    if fmt == "json":
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        for value in (v for row in rows for v in row):
            _require(not isinstance(value, float) or math.isfinite(value),
                     f"CSV output holds a non-finite value: {value!r}")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {out}: {exc.strerror or exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projheat",
        description="Spectral tables and heat-kernel cross-checks for magnetic "
                    "Laplacians on complex projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help, *int_flags):
        """A subcommand and its required integer flags: --n >= 1, the others >= 0."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag in int_flags:
            p.add_argument(flag, type=_int_at_least(flag, 1 if flag == "--n" else 0),
                           required=True)
        return p

    def add_points(p):
        """--z and --w; argparse reads a word like -0.1+0.2j as a flag, so such a value needs '='."""
        for flag in ("--z", "--w"):
            p.add_argument(flag, type=_point, required=True,
                           help=f"comma-separated complex coords, e.g. 0.1+0.2j,0.3; give a "
                                f"value that starts with '-' as {flag}=-0.1+0.2j")

    add_command("coeffs", cmd_coeffs, "exact heat coefficients c_i and b_j", "--n", "--nu", "--J")

    p = add_command("dims", cmd_dims, "eigenspace dimension table", "--n", "--two-nu")
    p.add_argument("--m-max", type=_int_at_least("--m-max", 0), default=20)

    add_command("decomp", cmd_decomp, "multiplicity decomposition coefficients", "--n", "--two-nu")

    p = add_command("kernel", cmd_kernel, "reproducing kernel K_{nu,m}(z,w)",
                    "--n", "--two-nu", "--m")
    add_points(p)

    p = add_command("heat-eval", cmd_heat_eval, "heat kernel by series and/or integral form",
                    "--n", "--two-nu")
    p.add_argument("--t", type=_positive_float("--t"), required=True)
    add_points(p)
    p.add_argument("--method", choices=("series", "integral", "both"), default="both")
    p.add_argument("--eps", type=_positive_float("--eps"), default=KERNEL_EPS,
                   help="the series' truncation tolerance (default %(default)g); the "
                        "integral form always truncates at this default")
    p.add_argument("--nodes", type=_checked("--nodes", int, lambda v: 16 <= v <= 1024,
                                            "in [16, 1024]"), default=16,
                   help="no effect, accepted for old command lines: the integral form "
                        "builds one midpoint rule of the order that integrates the "
                        "Gegenbauer bracket exactly, so errorBound is the truncation tail "
                        "alone; rounding is not included")

    p = add_command("trace-compare", cmd_trace_compare, "direct trace vs asymptotic expansion",
                    "--n", "--nu", "--J")
    p.add_argument("--t", type=_times, required=True,
                   help="comma-separated times, e.g. 0.1,0.05,0.02")
    p.add_argument("--eps", type=_positive_float("--eps"), default=1e-12,
                   help="the direct sum stops at an absolute tail below EPS (default "
                        "%(default)g), or sooner at a tail too small to show in its binary64 "
                        "value, which is the same value")

    p = add_command("verify", cmd_verify, "run cross-representation verification suites")
    p.add_argument("--scope", choices=("all", *SCOPE_NAMES), default="all")
    p.add_argument("--nmax", type=_int_at_least("--nmax", 1), default=6)
    p.add_argument("--seed", type=_int_at_least("--seed", 0), default=2024)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default="-", help="output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, header, rows, *code = args.func(args)
        _render(args.format, args.out, payload, header, rows)
    except (ValidationError, ProjheatError, ValueError) as exc:
        print(f"projheat: error: {exc}", file=sys.stderr)
        return 2
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
