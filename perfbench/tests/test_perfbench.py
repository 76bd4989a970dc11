"""The benchmark's own tests: generators, tracing, repeatable counts, metric names.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Op  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def _ops(name: str, seed: int, k: int = 40) -> list[Op]:
    return list(itertools.islice(WORKLOADS[name].generate(random.Random(seed)), k))


def _run(capsys, mode, workload: str, seconds: float) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "11", "--seconds", str(seconds)])
    result = mode(args, {"nproc": 1})
    out = capsys.readouterr().out
    assert result["correct"], out
    return result


def _cli(argv) -> tuple[int, str]:
    from projheat.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert _ops(name, 3) == _ops(name, 3)
    assert _ops(name, 3) != _ops(name, 4)
    assert all(op.argv[0] == op.command and op.command in workloads.CHECKS
               for op in _ops(name, 3))


def test_coordinates_are_passed_as_option_values():
    argvs = [op.argv for op in _ops("kernel_eval", 5, 200)]
    for argv in argvs:
        assert not any(a in ("--z", "--w") for a in argv)
    assert any(a.startswith("--z=-") for argv in argvs for a in argv)


def _bindings() -> dict:
    out = {}
    for mod in tracer._projheat_modules():
        for attr, val in vars(mod).items():
            out[(mod.__name__, attr)] = val
            if type(val) is dict:
                for key, item in val.items():
                    out[(mod.__name__, attr, key)] = item
    return out


def test_tracer_restores_every_binding():
    import projheat.cli
    import projheat.heat
    import projheat.verify

    before = _bindings()
    with tracer.Tracer() as tr:
        assert isinstance(projheat.heat.gauss_legendre, tracer._Probe)
        assert isinstance(projheat.verify.SCOPES["heat"], tracer._Probe)
        projheat.heat.heat_kernel_integral(1, 1, 0.5, 0.1, 0.2)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(isinstance(v, tracer._Probe) for v in after.values())
    names = tracer.TraceSummary(tr.spans).calls
    assert names["heat.heat_kernel_integral"] == 1
    assert names["quadrature.gauss_legendre"] == 2


def test_self_time_subtracts_the_union_of_children():
    # parent 0..10; children 1..4 and 3..6 overlap (cross-thread), 8..9 apart
    spans = [(2, "c", 1.0, 4.0, 1, None), (3, "c", 3.0, 6.0, 1, None),
             (4, "d", 8.0, 9.0, 1, 5), (1, "p", 0.0, 10.0, None, None)]
    s = tracer.TraceSummary(spans)
    assert s.self_s["p"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert s.calls["c"] == 2 and s.values["d"] == 5
    assert s.calls_under("c", {"p"}) == 2 and s.calls_under("p", {"c"}) == 0


def test_checks_reject_wrong_output():
    coeffs = Op("coeffs", (), {"n": 1, "nu": 0, "J": 1, "format": "json"})
    good = json.dumps({"c": ["1/1", "1/12"], "b": [{"factor": "4/1", "piPower": 1},
                                                 {"factor": "4/3", "piPower": 1}]})
    workloads.check(coeffs, 0, good)
    for bad_code, bad_out in ((0, good.replace("4/3", "4/5")), (2, good),
                              (0, good.replace('"1/12"', "NaN")), (0, "")):
        with pytest.raises(CheckFailed):
            workloads.check(coeffs, bad_code, bad_out)
    series = next(op for op in _ops("kernel_eval", 2, 60) if op.params.get("method") == "series")
    code, out = _cli(series.argv)
    workloads.check(series, code, out)
    payload = json.loads(out)
    payload["series"]["value"]["re"] *= 1 + 1e-6
    with pytest.raises(CheckFailed):
        workloads.check(series, 0, json.dumps(payload))
    verify = Op("verify", (), {})
    checks = [{"name": n, "status": s} for n, s in workloads.EXPECTED_VERIFY]
    workloads.check(verify, 0, json.dumps({"checks": checks}))
    checks[-1]["status"] = "FAIL"
    with pytest.raises(CheckFailed):
        workloads.check(verify, 0, json.dumps({"checks": checks}))


@pytest.mark.parametrize("name", ["kernel_eval", "tables_trace"])
def test_traced_counts_and_ratios_repeat_exactly(capsys, name):
    first = _run(capsys, run.run_traced, name, 2)["metrics"]
    spans = [json.loads(line) for line in (run.BUILD / f"spans-{name}.jsonl").open()]
    assert sum(span[1] == "cli.main" for span in spans) == run.traced_op_count(WORKLOADS[name], 2)
    second = _run(capsys, run.run_traced, name, 2)["metrics"]
    exact = [k for k, v in first.items() if k.endswith(".calls") or v["unit"] == "ratio"]
    assert len(exact) == 24
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(first)
    assert all(m["unit"] == first[m["name"]]["unit"] for m in BENCHMARK["per_layer"])


def test_calibration_scales_to_reference_speed():
    assert calibrate.scale(calibrate.REFERENCE_S) == pytest.approx(1.0)
    assert calibrate.scale(calibrate.REFERENCE_S / 2, calibrate.REFERENCE_S * 2) == pytest.approx(1.0)
    assert calibrate.scale(calibrate.REFERENCE_S * 2) == pytest.approx(0.5)
    assert 0 < calibrate.reading() < 1.0
    assert 0 < calibrate.reading(2) < 1.0


def test_untraced_metric_names_match_benchmark_json(capsys):
    result = _run(capsys, run.run_untraced, "tables_trace", 0.5)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(result["metrics"])
    assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in BENCHMARK["end_to_end"])
    assert result["attempted"] >= 1 and result["failed"] == 0
    outputs = (run.BUILD / "outputs-tables_trace.jsonl").read_text().splitlines()
    assert len(outputs) == result["attempted"]
