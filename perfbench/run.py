#!/usr/bin/env python3
"""projheat benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload {verify_all,kernel_eval,tables_trace} \\
        --seed N --seconds S --trace {0,1}

Each op calls ``projheat.cli.main(argv)`` in this process with its output
captured: a closed loop with one client. ``--trace 0`` runs ops for S
seconds of op time and reports the end-to-end metrics. Each op's output is
written to ``.bench_build/outputs-<workload>.jsonl`` between ops, outside
the timed intervals, and checked from there after the loop. Timings are
reported at a reference host speed: a fixed probe (calibrate.py), timed
between ops, is divided out; the times as measured are printed beside them.
``--trace 1`` runs a fixed, seed-determined list of ops twice, untraced and
then traced, reports the per-layer metrics, and writes the traced spans to
``.bench_build/spans-<workload>.jsonl``, one JSON list ``[id, name, start,
end, parent id, value]`` a line. Both files hold the workload's latest run.
Provenance and any failing ops are printed first; the last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import CHECKS, WORKLOADS, CheckFailed, Op, check  # noqa: E402

SETUP_REPEATS = 11
# Op time between host-speed readings; the ops between two readings are
# scaled by their geometric mean.
CALIBRATE_EVERY_S = 0.5
# Ops generated during set-up per measured second; the list grows by as much
# again if a run gets through it.
PREGENERATED_OPS_PER_S = 100
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> dict:
    """One client and no extra threads: BLAS single-threaded, verify's suite
    pool sized to the cores this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["PROJHEAT_THREADS"] = str(nproc)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {"nproc": nproc, "PROJHEAT_THREADS": nproc, "blas_threads": 1}


def import_projheat():
    """Import the package from this checkout's src/ (numpy and mpmath with it)."""
    if not (SRC / "projheat" / "cli.py").is_file():
        raise SystemExit(f"run.py: no projheat sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import projheat.cli

    return projheat.cli


# ---------------------------------------------------------------- ops

@dataclass
class OpRun:
    op: Op
    latency_s: float
    code: object
    out: str
    error: str | None  # traceback of an exception escaping cli.main

    def record(self) -> str:
        """Everything but the op, as one JSON line (the op is regenerated from the seed)."""
        return json.dumps({"latency_s": self.latency_s, "code": self.code, "out": self.out,
                           "error": self.error})


def run_op(cli, op: Op) -> OpRun:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            error = traceback.format_exc(limit=4)
        latency = perf_counter() - start
    return OpRun(op, latency, code, out.getvalue(), error)


def check_run(run: OpRun) -> str | None:
    """The reason an op failed, or None. Runs outside any timed interval."""
    if run.error is not None:
        return f"exception: {run.error.strip().splitlines()[-1]}"
    try:
        check(run.op, run.code, run.out)
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a reference computation in the check itself failed
        return f"check raised {exc!r}"
    return None


class OpSource:
    """The workload's op stream, generated ahead of the timed loop."""

    def __init__(self, workload, seed: int, chunk: int) -> None:
        self._gen = workload.generate(random.Random(seed))
        self._chunk = max(1, chunk)
        self.ops: list[Op] = list(itertools.islice(self._gen, self._chunk))

    def __getitem__(self, i: int) -> Op:
        if i >= len(self.ops):
            self.ops.extend(itertools.islice(self._gen, self._chunk))
        return self.ops[i]

    def first(self, k: int) -> list[Op]:
        return [self[i] for i in range(k)]


def set_up(workload, seed: int, seconds: float, trace: bool):
    """Import, input generation and warm-up: everything before the first timed op."""
    cli = import_projheat()
    chunk = traced_op_count(workload, seconds) if trace else math.ceil(seconds * PREGENERATED_OPS_PER_S)
    source = OpSource(workload, seed, chunk)
    for argv in workload.warmup:
        run = run_op(cli, Op(argv[0], argv, {}))
        if run.code != 0 or run.error:
            raise SystemExit(f"run.py: warm-up {' '.join(argv)} failed: {run.error or run.code}")
    return cli, source


def traced_op_count(workload, seconds: float) -> int:
    return max(1, round(seconds * workload.traced_ops_per_s))


def reading_threads(workload, pinned: dict) -> int:
    """Threads a host-speed reading runs in: as many as the workload's ops use."""
    return pinned["PROJHEAT_THREADS"] if workload.threaded_ops else 1


def measure_setup(args) -> tuple[float, float]:
    """Median, over fresh interpreters, of the time from spawn to ready: scaled
    to reference host speed by a reading each interpreter takes once ready (a
    new process may land on a core of another speed), and as measured."""
    scaled, measured = [], []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"run.py: set-up probe failed: {proc.stderr.strip()[-500:]}")
        ready, reading = map(float, proc.stdout.split()[-2:])
        measured.append(ready - start)
        scaled.append(measured[-1] * calibrate.scale(reading))
    return statistics.median(scaled), statistics.median(measured)


# ---------------------------------------------------------------- results

# End-to-end timings, reported at reference host speed (see calibrate.py).
TIMINGS = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms")


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(lat_ms: list[float], failed: int, setup_s: float,
                       peak_rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (percentile(lat_ms, 90), "ms"),
        "ok_frac": ((len(lat_ms) - failed) / len(lat_ms), "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary, traced: int, untraced: list[OpRun], overhead: float) -> dict:
    from tracer import FUNCTIONS, SUITES

    m = {}
    for module, fname in FUNCTIONS:
        name = f"{module}.{fname}"
        m[f"{name}.calls"] = (summary.calls[name] / traced, "calls/op")
        m[f"{name}.self_ms"] = (summary.self_s[name] * 1e3 / traced, "ms/op")
    for module, fname in SUITES:
        m[f"{module}.{fname}.ms"] = (summary.wall_s[f"{module}.{fname}"] * 1e3 / traced, "ms/op")
    calls = summary.calls
    integrals = {"heat.heat_kernel_integral", "heat.heat_kernel_integral_hi"}
    m["quadrature.gauss_legendre.calls_per_integral"] = (_ratio(
        summary.calls_under("quadrature.gauss_legendre", integrals),
        sum(calls[n] for n in integrals)), "ratio")
    m["kernels.monopole_basis.calls_per_norm"] = (_ratio(
        summary.calls_under("kernels.monopole_basis", {"kernels.monopole_norm_sq"}),
        calls["kernels.monopole_norm_sq"]), "ratio")
    m["spectrum.dimension_product_form.calls_per_trace"] = (_ratio(
        summary.calls_under("spectrum.dimension_product_form", {"heat.trace_direct"}),
        calls["heat.trace_direct"]), "ratio")
    m["heatcoeff.c_coefficients.calls_per_table"] = (_ratio(
        summary.calls_under("heatcoeff.c_coefficients", {"heatcoeff.heat_coeff_table"}),
        calls["heatcoeff.heat_coeff_table"]), "ratio")
    m["heat.heat_kernel_series.terms_per_call"] = (_ratio(
        summary.values["heat.heat_kernel_series"], calls["heat.heat_kernel_series"]), "ratio")
    for command in CHECKS:
        lat = [r.latency_s * 1e3 for r in untraced if r.op.command == command]
        m[f"cli.{command}.p50_ms"] = (statistics.median(lat) if lat else 0.0, "ms")
    m["trace_overhead_frac"] = (overhead, "frac")
    return m


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "projheat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, pinned: dict, ops: list[Op]) -> dict:
    import mpmath
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        **pinned,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "op_mix": dict(Counter(op.command for op in ops)),
    }


def report(metrics: dict, prov: dict, failures: list[tuple[OpRun, str]], attempted: int,
           notes: dict) -> dict:
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    for run, reason in failures:
        print(f"FAILED {' '.join(run.op.argv)}: {reason}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------- modes

def build_file(kind: str, args) -> Path:
    BUILD.mkdir(exist_ok=True)
    return BUILD / f"{kind}-{args.workload}.jsonl"


def run_untraced(args, pinned: dict) -> dict:
    setup_s, measured_setup_s = measure_setup(args)
    workload = WORKLOADS[args.workload]
    cli, source = set_up(workload, args.seed, args.seconds, trace=False)
    # Outputs go to a file, not to memory, so peak_rss_mb does not grow with
    # the number of ops a run gets through; writing it is not timed. Every
    # CALIBRATE_EVERY_S of op time, untimed, the host speed is read and the
    # ops since the last reading are scaled to reference speed.
    outputs = build_file("outputs", args)
    lat_ms: list[float] = []  # as measured
    scaled_ms: list[float] = []  # at reference host speed
    threads = reading_threads(workload, pinned)
    readings = [calibrate.reading(threads)]
    timed_s = window_s = 0.0
    with open(outputs, "w") as fh:
        while not lat_ms or timed_s < args.seconds:
            run = run_op(cli, source[len(lat_ms)])
            timed_s += run.latency_s
            window_s += run.latency_s
            lat_ms.append(run.latency_s * 1e3)
            fh.write(run.record() + "\n")
            if window_s >= CALIBRATE_EVERY_S or timed_s >= args.seconds:
                readings.append(calibrate.reading(threads))
                factor = calibrate.scale(*readings[-2:])
                scaled_ms += [lat * factor for lat in lat_ms[len(scaled_ms):]]
                window_s = 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = []
    with open(outputs) as fh:
        for i, line in enumerate(fh):
            run = OpRun(source[i], **json.loads(line))
            if reason := check_run(run):
                failures.append((run, reason))
    metrics = end_to_end_metrics(scaled_ms, len(failures), setup_s, peak_rss_mb)
    measured = end_to_end_metrics(lat_ms, len(failures), measured_setup_s, peak_rss_mb)
    beyond = sum(lat > metrics["op_p90_ms"][0] for lat in scaled_ms)
    notes = {name: f"as measured {measured[name][0]:.6g}" for name in TIMINGS}
    notes["op_p90_ms"] += (f"; {len(lat_ms)} samples, {beyond} beyond it"
                           + ("; fewer than 10, not a resolved percentile" if beyond < 10 else ""))
    notes["setup_s"] += f"; median of {SETUP_REPEATS} fresh interpreters"
    print(f"calibration: {len(readings)} readings in {threads} thread(s), median"
          f" {statistics.median(readings) * 1e3:.4g} ms, reference {calibrate.REFERENCE_S * 1e3:.4g} ms")
    return report(metrics, provenance(args, pinned, source.first(len(lat_ms))), failures,
                  len(lat_ms), notes)


def run_traced(args, pinned: dict) -> dict:
    from tracer import Tracer, TraceSummary  # imports projheat: only after pin_environment

    workload = WORKLOADS[args.workload]
    cli, source = set_up(workload, args.seed, args.seconds, trace=True)
    ops = source.first(traced_op_count(workload, args.seconds))
    # each pass at reference host speed, so that a change of host speed
    # between the passes does not read as overhead
    threads = reading_threads(workload, pinned)
    readings = [calibrate.reading(threads)]
    untraced = [run_op(cli, op) for op in ops]
    readings.append(calibrate.reading(threads))
    with Tracer() as tracer:
        traced = [run_op(cli, op) for op in ops]
    readings.append(calibrate.reading(threads))
    overhead = (sum(r.latency_s for r in traced) * calibrate.scale(*readings[1:])
                / (sum(r.latency_s for r in untraced) * calibrate.scale(*readings[:2]))) - 1.0
    failures = [(r, reason) for r in untraced + traced if (reason := check_run(r))]
    metrics = layer_metrics(TraceSummary(tracer.spans), len(traced), untraced, overhead)
    with open(build_file("spans", args), "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    notes = {"trace_overhead_frac": "traced vs untraced pass over the same ops"}
    return report(metrics, provenance(args, pinned, ops), failures, len(untraced) + len(traced),
                  notes)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = pin_environment()
    if args.probe_setup:
        set_up(WORKLOADS[args.workload], args.seed, args.seconds, trace=False)
        ready = time.monotonic()
        print(ready, calibrate.reading())
        return 0
    import_projheat()  # fails early without sources, and leaves bytecode for the probes
    result = (run_traced if args.trace else run_untraced)(args, pinned)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
