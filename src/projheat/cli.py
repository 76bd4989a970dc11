"""Command-line interface: exact tables, kernel evaluations, cross-checks.

Output is JSON (default) or CSV. Rationals are always serialized as exact
"p/q" strings, floats as shortest round-trip decimals; given identical
flags the output is byte-identical across runs. Exit codes: 0 success,
1 verification failure, 2 usage or validation error.
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

from .errors import ProjheatError
from .exactnum import rational_str
from .heat import heat_kernel_integral, heat_kernel_series, trace_direct
from .heatcoeff import asymptotic_trace, heat_coeff_table
from .kernels import KernelEval, reproducing_kernel
from .spectrum import (
    SpectralPoint,
    decompose_multiplicity,
    dimension_gamma_form,
    dimension_poly_form,
    dimension_product_form,
)
from .verify import SCOPES, run_verify

__all__ = ["main", "build_parser"]


class ValidationError(Exception):
    """Bad parameter values (mapped to exit code 2)."""


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {out}: {exc.strerror or exc}") from None


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, allow_nan=False) + "\n", out)


def _emit_csv(header: list[str], rows: list[list], out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out)


def _parse_point(text: str) -> tuple[complex, ...]:
    try:
        point = tuple(complex(tok.strip()) for tok in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse point {text!r}: {exc}") from None
    _require(all(map(cmath.isfinite, point)), f"point {text!r} has a non-finite coordinate")
    return point


def _parse_times(text: str) -> list[float]:
    try:
        ts = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse time list {text!r}: {exc}") from None
    _require(all(_positive(t) for t in ts), "all t values must be finite and > 0")
    return ts


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


def _complex_dict(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


def _kernel_eval_dict(k: KernelEval) -> dict:
    return {"value": _complex_dict(k.value), "termsUsed": k.terms_used,
            "errorBound": k.error_bound}


def cmd_coeffs(args) -> int:
    _require(args.n >= 1, "--n must be >= 1")
    _require(args.J >= 0, "--J must be >= 0")
    table = heat_coeff_table(args.n, args.nu, args.J)
    if args.format == "json":
        _emit_json(table.to_json_dict(), args.out)
    else:
        rows = [[j, rational_str(table.c[j]), rational_str(table.b[j][0]), table.b[j][1]]
                for j in range(args.J + 1)]
        _emit_csv(["j", "c", "b_factor", "b_pi_power"], rows, args.out)
    return 0


def cmd_dims(args) -> int:
    _require(args.n >= 1, "--n must be >= 1")
    _require(args.two_nu >= 0, "--two-nu must be >= 0")
    _require(args.m_max >= 0, "--m-max must be >= 0")
    rows = []
    for m in range(args.m_max + 1):
        pt = SpectralPoint(args.n, args.two_nu, m)
        g = dimension_gamma_form(pt)
        if not g == dimension_product_form(pt) == dimension_poly_form(pt):
            raise AssertionError(f"dimension formulas disagree at {pt}")
        rows.append((m, g))
    if args.format == "json":
        _emit_json({
            "n": args.n, "twoNu": args.two_nu, "mMax": args.m_max,
            "rows": [{"m": m, "dimension": d} for m, d in rows],
        }, args.out)
    else:
        _emit_csv(["m", "dimension"], [list(r) for r in rows], args.out)
    return 0


def cmd_decomp(args) -> int:
    _require(args.n >= 1, "--n must be >= 1")
    _require(args.two_nu >= 0, "--two-nu must be >= 0")
    poly = decompose_multiplicity(args.n, Fraction(args.two_nu, 2))
    if args.format == "json":
        _emit_json({
            "n": args.n, "twoNu": args.two_nu, "parity": poly.parity,
            "coeffs": [rational_str(c) for c in poly.coeffs],
        }, args.out)
    else:
        _emit_csv(["p", "coefficient"],
                  [[p, rational_str(c)] for p, c in enumerate(poly.coeffs)], args.out)
    return 0


def cmd_kernel(args) -> int:
    _require(args.n >= 1, "--n must be >= 1")
    _require(args.two_nu >= 0, "--two-nu must be >= 0")
    _require(args.m >= 0, "--m must be >= 0")
    z, w = _parse_point(args.z), _parse_point(args.w)
    k = reproducing_kernel(args.n, args.two_nu, args.m, z, w)
    payload = {
        "n": args.n, "twoNu": args.two_nu, "m": args.m,
        "z": [[c.real, c.imag] for c in z],
        "w": [[c.real, c.imag] for c in w],
        **_kernel_eval_dict(k),
    }
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        _emit_csv(["re", "im", "terms_used", "error_bound"],
                  [[k.value.real, k.value.imag, k.terms_used, k.error_bound]], args.out)
    return 0


def cmd_heat_eval(args) -> int:
    _require(args.n >= 1, "--n must be >= 1")
    _require(args.two_nu >= 0, "--two-nu must be >= 0")
    _require(_positive(args.t), "--t must be finite and > 0")
    _require(_positive(args.eps), "--eps must be finite and > 0")
    z, w = _parse_point(args.z), _parse_point(args.w)
    payload = {"n": args.n, "twoNu": args.two_nu, "t": args.t,
               "z": [[c.real, c.imag] for c in z], "w": [[c.real, c.imag] for c in w]}
    rows = []
    if args.method in ("series", "both"):
        ks = heat_kernel_series(args.n, args.two_nu, args.t, z, w, eps=args.eps)
        payload["series"] = _kernel_eval_dict(ks)
        rows.append(["series", ks.value.real, ks.value.imag, ks.terms_used, ks.error_bound])
    if args.method in ("integral", "both"):
        ki = heat_kernel_integral(args.n, args.two_nu, args.t, z, w, nodes=args.nodes)
        payload["integral"] = _kernel_eval_dict(ki)
        rows.append(["integral", ki.value.real, ki.value.imag, ki.terms_used, ki.error_bound])
    if args.method == "both":
        payload["relDifference"] = abs(ks.value - ki.value) / (1.0 + abs(ks.value))
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        _emit_csv(["method", "re", "im", "terms_used", "error_bound"], rows, args.out)
    return 0


def cmd_trace_compare(args) -> int:
    _require(args.n >= 1, "--n must be >= 1")
    _require(args.nu >= 0, "--nu must be >= 0")
    _require(args.J >= 0, "--J must be >= 0")
    _require(_positive(args.eps), "--eps must be finite and > 0")
    times = _parse_times(args.t)
    rows = []
    for t in times:
        direct = trace_direct(args.n, 2 * args.nu, t, eps=args.eps)
        asym = asymptotic_trace(args.n, args.nu, t, args.J)
        abs_err = abs(direct - asym)
        scaled = abs_err * (4 * pi * t) ** args.n / t ** (args.J + 1)
        rows.append([t, direct, asym, abs_err, scaled])
    if args.format == "json":
        _emit_json({
            "n": args.n, "nu": args.nu, "J": args.J,
            "rows": [
                {"t": r[0], "direct": r[1], "asymptotic": r[2],
                 "absErr": r[3], "scaledErr": r[4]} for r in rows
            ],
        }, args.out)
    else:
        _emit_csv(["t", "direct", "asymptotic", "abs_err", "scaled_err"], rows, args.out)
    return 0


def cmd_verify(args) -> int:
    checks = run_verify(args.scope, nmax=args.nmax, seed=args.seed)
    counts = {"pass": sum(c.status == "PASS" for c in checks),
              "warn": sum(c.status == "WARN" for c in checks),
              "fail": sum(c.status == "FAIL" for c in checks)}
    if args.format == "json":
        _emit_json({
            "scope": args.scope,
            "checks": [c.to_dict() for c in checks],
            "counts": counts,
        }, args.out)
    else:
        _emit_csv(["name", "status", "detail"],
                  [[c.name, c.status, c.detail] for c in checks], args.out)
    return 1 if counts["fail"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projheat",
        description="Spectral tables and heat-kernel cross-checks for magnetic "
                    "Laplacians on complex projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default="-", help="output path (default: stdout)")

    p = sub.add_parser("coeffs", help="exact heat coefficients c_i and b_j")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--J", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("dims", help="eigenspace dimension table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--two-nu", type=int, required=True)
    p.add_argument("--m-max", type=int, default=20)
    add_common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("decomp", help="multiplicity decomposition coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--two-nu", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_decomp)

    p = sub.add_parser("kernel", help="reproducing kernel K_{nu,m}(z,w)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--two-nu", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z", required=True, help="comma-separated complex coords, e.g. 0.1+0.2j,0.3")
    p.add_argument("--w", required=True)
    add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("heat-eval", help="heat kernel by series and/or integral form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--two-nu", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--method", choices=("series", "integral", "both"), default="both")
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--nodes", type=int, default=128)
    add_common(p)
    p.set_defaults(func=cmd_heat_eval)

    p = sub.add_parser("trace-compare", help="direct trace vs asymptotic expansion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--t", required=True, help="comma-separated times, e.g. 0.1,0.05,0.02")
    p.add_argument("--eps", type=float, default=1e-12)
    add_common(p)
    p.set_defaults(func=cmd_trace_compare)

    p = sub.add_parser("verify", help="run cross-representation verification suites")
    p.add_argument("--scope", choices=("all", *SCOPES), default="all")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--seed", type=int, default=2024)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ProjheatError, ValueError) as exc:
        print(f"projheat: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
