"""Command-line interface: schemas, exit codes, byte-stable output."""

from __future__ import annotations

import json

import pytest

from projheat.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_json_n3(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "3", "--nu", "0", "--J", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["twoNu"] == 0 and payload["J"] == 6
    assert payload["c"][:3] == ["1/1", "-1/4", "1/32"]
    assert payload["b"][0] == {"factor": "32/3", "piPower": 3}
    assert isinstance(payload["paper_reported_diffs"], list)


def test_coeffs_volume_b0_n2(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "2", "--nu", "0", "--J", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["b"] == [{"factor": "8/1", "piPower": 2}]  # 8 pi^2


def test_coeffs_exact_rationals_n1_nu3(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "1", "--nu", "3", "--J", "4")
    assert code == 0
    payload = json.loads(out)
    for s in payload["c"]:
        num, den = s.split("/")
        int(num), int(den)


def test_coeffs_csv(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n", "1", "--nu", "1", "--J", "2",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,c,b_factor,b_pi_power"
    assert len(lines) == 4
    assert lines[1].startswith("0,1/1,4/1,1")


def test_json_round_trip_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "coeffs", "--n", "2", "--nu", "1", "--J", "5")
    reparsed = json.loads(out1)
    assert json.dumps(reparsed, indent=2) + "\n" == out1
    _, out2, _ = run_cli(capsys, "coeffs", "--n", "2", "--nu", "1", "--J", "5")
    assert out1 == out2


def test_dims_table(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "2", "--two-nu", "1", "--m-max", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0] == {"m": 0, "dimension": 3}
    code, out, _ = run_cli(capsys, "dims", "--n", "1", "--two-nu", "0", "--m-max", "2",
                           "--format", "csv")
    assert out.splitlines() == ["m,dimension", "0,1", "1,3", "2,5"]


def test_decomp_command(capsys):
    code, out, _ = run_cli(capsys, "decomp", "--n", "4", "--two-nu", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["parity"] == "even"
    assert payload["coeffs"] == ["0/1", "4/1", "-5/1", "1/1"]


def test_kernel_command(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--n", "1", "--two-nu", "2", "--m", "1",
                           "--z", "0.3+0.2j", "--w", "0.1-0.4j")
    assert code == 0
    payload = json.loads(out)
    assert payload["termsUsed"] == 0
    assert payload["errorBound"] == 0.0
    assert set(payload["value"]) == {"re", "im"}


def test_heat_eval_both_methods(capsys):
    code, out, _ = run_cli(capsys, "heat-eval", "--n", "1", "--two-nu", "1",
                           "--t", "0.5", "--z", "0.3", "--w", "0.1j")
    assert code == 0
    payload = json.loads(out)
    assert payload["relDifference"] < 1e-6
    vs, vi = payload["series"]["value"], payload["integral"]["value"]
    assert vs["re"] == pytest.approx(vi["re"], rel=1e-6)


@pytest.mark.parametrize("command, flags", [
    ("kernel", ("--n=1", "--two-nu=2", "--m=1")),
    ("heat-eval", ("--n=1", "--two-nu=1", "--t=0.5", "--method=series")),
])
def test_negative_complex_coordinate_after_equals(capsys, command, flags):
    # a word like -0.1+0.2j is read as the value only when joined to its flag by '='
    from projheat.heat import heat_kernel_series
    from projheat.kernels import reproducing_kernel

    code, out, err = run_cli(capsys, command, *flags, "--z=0.3+0.2j", "--w=-0.1+0.2j")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["w"] == [[-0.1, 0.2]]
    z, w = (0.3 + 0.2j,), (-0.1 + 0.2j,)
    k = (reproducing_kernel(1, 2, 1, z, w) if command == "kernel"
         else heat_kernel_series(1, 1, 0.5, z, w))
    value = payload["value"] if command == "kernel" else payload["series"]["value"]
    assert (value["re"], value["im"]) == (k.value.real, k.value.imag)


@pytest.mark.parametrize("command, flags", [
    ("kernel", ("--n=1", "--two-nu=2", "--m=1")),
    ("heat-eval", ("--n=1", "--two-nu=1", "--t=0.5")),
])
def test_negative_complex_coordinate_as_a_separate_word_exits_2(fresh_cli, command, flags):
    # argparse reads the separate word as a flag: a usage error, one error line, no traceback
    proc = fresh_cli([command, *flags, "--z", "0.3", "--w", "-0.1+0.2j"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and proc.stderr.count("error:") == 1
    assert proc.stderr.endswith(f"projheat {command}: error: argument --w: "
                                "expected one argument\n")


def test_trace_compare_scaled_column(capsys):
    code, out, _ = run_cli(capsys, "trace-compare", "--n", "1", "--nu", "1",
                           "--J", "6", "--t", "0.1,0.05,0.02")
    assert code == 0
    payload = json.loads(out)
    scaled = [row["scaledErr"] for row in payload["rows"]]
    assert len(scaled) == 3
    # roughly constant: successive values within a factor 4 (J=6 resolvable here)
    for a, b in zip(scaled, scaled[1:]):
        assert max(a / b, b / a) < 4.0


def test_trace_compare_rejects_bad_time(capsys):
    code, _, err = run_cli(capsys, "trace-compare", "--n", "1", "--nu", "0",
                           "--J", "4", "--t", "-1")
    assert code == 2
    assert "error" in err


def test_bad_flag_values_exit_2(capsys):
    assert run_cli(capsys, "coeffs", "--n", "0", "--nu", "0", "--J", "1")[0] == 2
    assert run_cli(capsys, "heat-eval", "--n", "1", "--two-nu", "1", "--t", "-0.5",
                   "--z", "0", "--w", "0.1")[0] == 2
    assert run_cli(capsys, "kernel", "--n", "1", "--two-nu", "0", "--m", "0",
                   "--z", "bogus", "--w", "0")[0] == 2
    # half-integer nu is rejected by the coefficient theorem gate upstream
    assert run_cli(capsys, "coeffs", "--n", "2", "--nu", "-1", "--J", "3")[0] == 2


# the minimal valid flags of each subcommand that has a bounded flag
VALID = {
    "coeffs": {"--n": "1", "--nu": "0", "--J": "2"},
    "dims": {"--n": "1", "--two-nu": "0", "--m-max": "2"},
    "decomp": {"--n": "1", "--two-nu": "0"},
    "kernel": {"--n": "1", "--two-nu": "0", "--m": "0", "--z": "0.1", "--w": "0.2j"},
    "heat-eval": {"--n": "1", "--two-nu": "0", "--t": "0.5", "--z": "0.1", "--w": "0.2j",
                  "--eps": "1e-10", "--nodes": "16"},
    "trace-compare": {"--n": "1", "--nu": "0", "--J": "2", "--t": "0.1", "--eps": "1e-12"},
    "verify": {"--nmax": "1", "--seed": "0"},
}
BELOW_BOUND = {"--n": "0", "--two-nu": "-1", "--m": "-1", "--m-max": "-1", "--J": "-1",
               "--nu": "-1", "--t": "0", "--eps": "0", "--nmax": "0", "--nodes": "15",
               "--seed": "-1"}


@pytest.mark.parametrize("command,flag", [
    pytest.param(command, flag, id=command + flag)
    for command, flags in VALID.items() for flag in flags if flag in BELOW_BOUND
])
def test_every_flag_bound_exits_2(capsys, monkeypatch, command, flag):
    # the parser rejects the value before any command runs
    import projheat.cli

    for name in vars(projheat.cli).copy():
        if name.startswith("cmd_"):
            monkeypatch.setattr(projheat.cli, name, None)
    flags = {**VALID[command], flag: BELOW_BOUND[flag]}
    code, out, err = run_cli(capsys, command, *(f"{k}={v}" for k, v in flags.items()))
    assert code == 2 and out == ""
    assert err.startswith("projheat: error: ") and err.count("\n") == 1


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--bogus", "1"])
    assert exc.value.code == 2


def test_non_integer_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--n", "x", "--nu", "0", "--J", "1"])
    assert exc.value.code == 2
    assert "argument --n: invalid int value: 'x'" in capsys.readouterr().err


def test_scope_names_match_verify():
    # the parser's --scope choices come from cli.SCOPE_NAMES, not from verify, so
    # the other commands skip verify's own import (it loads neither numpy nor mpmath)
    from projheat import cli, verify

    assert cli.SCOPE_NAMES == tuple(verify.SCOPES)


def test_unknown_scope_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scope", "bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: projheat verify [-h]\n"
        "                       [--scope {all,dims,paper8,zaremba,heat,trace,theta,bernoulli,monopole}]\n"
        "                       [--nmax NMAX] [--seed SEED] [--format {json,csv}]\n"
        "                       [--out OUT]\n"
        "projheat verify: error: argument --scope: invalid choice: 'bogus' (choose from 'all', "
        "'dims', 'paper8', 'zaremba', 'heat', 'trace', 'theta', 'bernoulli', 'monopole')\n"
    )


def test_verify_single_scope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "bernoulli")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["fail"] == 0
    assert all(c["status"] == "PASS" for c in payload["checks"])


def test_verify_paper8_warns_but_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "paper8")
    assert code == 0
    payload = json.loads(out)
    statuses = {c["status"] for c in payload["checks"]}
    assert "WARN" in statuses and "FAIL" not in statuses


def test_verify_dims_scope_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "dims", "--nmax", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,status,detail"
    assert lines[1].startswith("dims.triple_agreement,PASS")


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "coeffs.json"
    code, out, _ = run_cli(capsys, "coeffs", "--n", "1", "--nu", "0", "--J", "2",
                           "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["c"] == ["1/1", "1/12", "7/480"]


def test_truncation_failure_exits_2(capsys, monkeypatch):
    # at t = 1e-9 the absolute tail tolerance is out of reach; a low term cap
    # makes the failure show at once
    import projheat.theta

    monkeypatch.setattr(projheat.theta, "_MAX_TERMS", 100)
    code, out, err = run_cli(capsys, "trace-compare", "--n", "1", "--nu", "0",
                             "--J", "4", "--t", "1e-9")
    assert code == 2 and out == ""
    assert err.startswith("projheat: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("heat-eval", "--n", "1", "--two-nu", "1", "--t", "inf", "--z", "0.3", "--w", "0.1j"),
    ("heat-eval", "--n", "1", "--two-nu", "1", "--t", "0.5", "--z", "nan", "--w", "0.1j"),
    ("heat-eval", "--n", "1", "--two-nu", "1", "--t", "0.5", "--z", "0.3", "--w", "0.1j",
     "--eps", "inf"),
    ("kernel", "--n", "1", "--two-nu", "0", "--m", "1", "--z", "0.2", "--w", "nan"),
    ("trace-compare", "--n", "1", "--nu", "0", "--J", "4", "--t", "0.1,inf"),
], ids=["heat_t_inf", "heat_z_nan", "heat_eps_inf", "kernel_w_nan", "trace_t_inf"])
def test_non_finite_inputs_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("projheat: error: ")


_Z200 = ",".join(["0.01"] * 200)
_W200 = ",".join(["0.02"] * 200)


@pytest.mark.parametrize("argv", [
    ("heat-eval", "--n", "1", "--two-nu", "86", "--t", "0.5", "--z", "0.3+0.2j",
     "--w", "0.1-0.4j"),
    # the float product of the constant's factorials overflows before the quotient
    ("heat-eval", "--method", "integral", "--n", "1", "--two-nu", "85", "--t", "0.5",
     "--z", "0.3+0.2j", "--w", "0.1-0.4j"),
    ("kernel", "--n", "200", "--two-nu", "0", "--m", "1", "--z", _Z200, "--w", _W200),
    ("heat-eval", "--method", "series", "--n", "200", "--two-nu", "0", "--t", "0.5",
     "--z", _Z200, "--w", _W200),
    ("trace-compare", "--n", "1", "--nu", "1", "--J", "300", "--t", "0.1"),
    ("trace-compare", "--n", "1", "--nu", "1", "--J", "60", "--t", "1e-6"),
    ("trace-compare", "--n", "200", "--nu", "0", "--J", "0", "--t", "0.001"),
    # |q| = 1e-5 near the antipode: the pair's scale const conj(q)^{-70} passes binary64
    ("heat-eval", "--method", "integral", "--n", "1", "--two-nu", "70", "--t", "0.5",
     "--z", "100000", "--w=-0.00001+0.00001j"),
], ids=["integral_constant_2nu86", "integral_constant_2nu85", "kernel_gamma_ratio_n200",
        "series_weight_n200", "trace_compare_coefficient_J300", "trace_compare_scaled_error_t1e-6",
        "trace_compare_trace_term_n200", "integral_pair_scale_2nu70"])
def test_binary64_overflow_exits_2(fresh_cli, argv):
    # a quantity past binary64 is a typed error: one line, no traceback. The run is in
    # a fresh interpreter, as the console script runs, so a warning on the way to the
    # error is one more stderr line and fails the case
    proc = fresh_cli(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    err = proc.stderr
    assert err.startswith("projheat: error: ") and err.count("\n") == 1
    assert err.endswith("exceeds the binary64 range\n")


@pytest.mark.parametrize("argv", [
    ("kernel", "--n=1", "--two-nu=3", "--m=2"),
    ("heat-eval", "--n=1", "--two-nu=1", "--t=0.5", "--method=integral"),
], ids=["kernel_pair_geometry_1e200", "integral_pair_geometry_1e200"])
def test_far_chart_points_are_valued(fresh_cli, argv):
    # |z|^2 and <z,w> pass binary64 at z = w = 1e200, so point_pair divides each point by
    # its largest coordinate first: one point twice is at distance 0, and a kernel's value
    # on the diagonal is the same at every point. In a fresh interpreter, with no warning
    far, origin = (fresh_cli([*argv, "--z=1e200", "--w=1e200"]),
                   fresh_cli([*argv, "--z=0", "--w=0"]))
    assert (far.returncode, far.stderr) == (origin.returncode, origin.stderr) == (0, "")
    values = [{k: v for k, v in json.loads(proc.stdout).items() if k not in ("z", "w")}
              for proc in (far, origin)]
    assert values[0] == values[1]


def test_heat_eval_rejects_huge_node_count(capsys, monkeypatch):
    # the parser rejects --nodes: neither the series nor any quadrature rule runs
    monkeypatch.setattr("projheat.heat.heat_kernel_series", None)
    monkeypatch.setattr("projheat.heat.midpoint_rule", None)
    code, out, err = run_cli(capsys, "heat-eval", "--n", "1", "--two-nu", "1", "--t", "0.5",
                             "--z", "0.3", "--w", "0.1j", "--method", "both",
                             "--nodes", "100000")
    assert code == 2 and out == ""
    assert err == "projheat: error: --nodes must be in [16, 1024]\n"


def test_heat_eval_nodes_has_no_effect(capsys, fresh_cli):
    # --nodes is accepted for old command lines and changes nothing: the integral
    # builds the one rule that is exact for its integrand, in this process with
    # warm caches and in fresh ones with cold caches
    args = ("heat-eval", "--n=1", "--two-nu=3", "--t=0.05", "--z=0.4-0.1j", "--w=-0.2+0.3j",
            "--method=integral")
    assert run_cli(capsys, *args, "--nodes=48") == run_cli(capsys, *args)
    with_nodes, without = fresh_cli([*args, "--nodes=48"]), fresh_cli(args)
    for proc in (with_nodes, without):
        assert (proc.returncode, proc.stderr) == (0, "")
    assert with_nodes.stdout == without.stdout


def test_trace_compare_builds_b_once(capsys, monkeypatch):
    # one exact b table per op, however many times it is evaluated at
    import sys

    from projheat.heatcoeff import b_coefficients

    calls = []

    def counting(*args):
        calls.append(args)
        return b_coefficients(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("projheat") and getattr(module, "b_coefficients", None) is b_coefficients:
            monkeypatch.setattr(module, "b_coefficients", counting)
    code, out, _ = run_cli(capsys, "trace-compare", "--n", "2", "--nu", "1", "--J", "6",
                           "--t", "0.1,0.01,0.001")
    assert code == 0 and len(json.loads(out)["rows"]) == 3
    assert calls == [(2, 1, 6)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_json_never_holds_nan(capsys, monkeypatch, fmt):
    # neither output format may carry a non-finite float
    from projheat.kernels import KernelEval

    monkeypatch.setattr("projheat.kernels.reproducing_kernel",
                        lambda *args: KernelEval(complex(float("nan"), 0.0), 0, 0.0))
    code, out, err = run_cli(capsys, "kernel", "--n", "1", "--two-nu", "0", "--m", "0",
                             "--z", "0", "--w", "0", "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("projheat: error: ") and err.count("\n") == 1


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "dims.json"
    code, out, err = run_cli(capsys, "dims", "--n", "1", "--two-nu", "0",
                             "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("projheat: error: cannot write") and err.count("\n") == 1
