"""Golden CLI outputs: stdout and exit code, byte for byte, for a fixed flag set.

Each file in tests/golden/ holds "exit <code>" on its first line followed by
the command's stdout, and CASES, the one list of the command lines, has one
entry per file. Every case runs twice: in this process, with whatever the
earlier tests left in the caches, and in a fresh interpreter (conftest's
fresh_cli) with cold caches, mpmath blocked and nothing allowed on stderr.
Refactors must leave every file unchanged. To capture the files again (only
when an output change is intended), or to capture only the named cases (a
new case, without rewriting the others):

    PYTHONPATH=src python tests/test_golden.py
    PYTHONPATH=src python tests/test_golden.py NAME [NAME ...]
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

import pytest

from conftest import run_fresh
from projheat.cli import main
from projheat.spectrum import _product_dimension
from projheat.theta import _gaussian

GOLDEN = Path(__file__).parent / "golden"

Z2, W2 = "--z=0.3+0.2j,0.1", "--w=0.2,-0.4j"
Z3, W3 = "--z=0.1+0.2j,-0.3j,0.25", "--w=0.2-0.1j,0.1,0.05+0.3j"
# z == w where point_pair's c2 rounds to 1 + 2^-52, so 2 c2 - 1 exceeds 1 before the clip
ZD, WD = "--z=0.83+0.19j,0.6+0.81j", "--w=0.83+0.19j,0.6+0.81j"

CASES = {
    "coeffs_json": ["coeffs", "--n=3", "--nu=0", "--J=6"],
    "coeffs_csv": ["coeffs", "--n=2", "--nu=1", "--J=8", "--format=csv"],
    # Bernoulli rows up to d = 80
    "coeffs_n6_J40_csv": ["coeffs", "--n=6", "--nu=3", "--J=40", "--format=csv"],
    # the odd-n tail past the benchmark's J = 40: 56 printed-diff entries
    "coeffs_n5_J60_json": ["coeffs", "--n=5", "--nu=2", "--J=60"],
    "dims_json": ["dims", "--n=2", "--two-nu=1", "--m-max=10"],
    "dims_csv": ["dims", "--n=4", "--two-nu=3", "--m-max=12", "--format=csv"],
    "dims_n8_csv": ["dims", "--n=8", "--two-nu=8", "--m-max=60", "--format=csv"],
    "decomp_json": ["decomp", "--n=4", "--two-nu=2"],
    "decomp_csv": ["decomp", "--n=5", "--two-nu=3", "--format=csv"],
    # the integer row of the multiplicity polynomial past any other golden's n = 8
    "decomp_n40_csv": ["decomp", "--n=40", "--two-nu=7", "--format=csv"],
    "kernel_json": ["kernel", "--n=1", "--two-nu=2", "--m=1", "--z=0.3+0.2j", "--w=0.1-0.4j"],
    "kernel_csv": ["kernel", "--n=3", "--two-nu=1", "--m=4", Z3, W3, "--format=csv"],
    "kernel_diag_json": ["kernel", "--n=2", "--two-nu=3", "--m=4", ZD, WD],
    "heat_eval_both_json": ["heat-eval", "--n=2", "--two-nu=1", "--t=0.5", Z2, W2],
    "heat_eval_series_csv": ["heat-eval", "--n=3", "--two-nu=2", "--t=0.01", Z3, W3,
                             "--method=series", "--format=csv"],
    "heat_eval_integral_nodes_json": ["heat-eval", "--n=1", "--two-nu=3", "--t=0.05",
                                      "--z=0.4-0.1j", "--w=-0.2+0.3j",
                                      "--method=integral", "--nodes=48"],
    "heat_eval_series_diag_json": ["heat-eval", "--n=2", "--two-nu=3", "--t=0.05", ZD, WD,
                                   "--method=series"],
    "heat_eval_series_n1_json": ["heat-eval", "--n=1", "--two-nu=1", "--t=0.1",
                                 "--z=0.3+0.2j", "--w=0.1-0.4j", "--method=series"],
    "heat_eval_both_n2_csv": ["heat-eval", "--n=2", "--two-nu=3", "--t=0.01", Z2, W2,
                              "--format=csv"],
    "heat_eval_both_n3_json": ["heat-eval", "--n=3", "--two-nu=0", "--t=1.0", Z3, W3],
    # the largest truncation of any case: 93 terms, the same in both forms
    "heat_eval_both_t0001_json": ["heat-eval", "--n=2", "--two-nu=3", "--t=0.001",
                                  "--z=0.1+0.05j,0.02", "--w=0.12,0.03j"],
    "trace_compare_json": ["trace-compare", "--n=1", "--nu=1", "--J=6", "--t=0.1,0.05,0.02"],
    "trace_compare_n5_csv": ["trace-compare", "--n=5", "--nu=2", "--J=4",
                             "--t=0.2,0.05,0.003", "--format=csv"],
    # the direct trace's degree-11 difference table over 5364 terms
    "trace_compare_n6_small_t_csv": ["trace-compare", "--n=6", "--nu=3", "--J=8",
                                     "--t=1e-5,3e-4,0.01", "--format=csv"],
    # n = 1 at small t, whose last bits a changed truncation moves first (the ulp is smallest)
    "trace_compare_n1_small_t_json": ["trace-compare", "--n=1", "--nu=1", "--J=6",
                                      "--t=0.01,0.0003,0.000013"],
    # t = 1e-8, where the 0.9-ratio cut alone runs past its 200 000 terms: the direct sum
    # stops near m = 63 750, once its tail cannot change the binary64 result
    "trace_compare_n1_t1e8_csv": ["trace-compare", "--n=1", "--nu=0", "--J=4", "--t=1e-8",
                                  "--format=csv"],
    "verify_all_json": ["verify"],
    "verify_heat_seed7_csv": ["verify", "--scope=heat", "--seed=7", "--format=csv"],
    "verify_zaremba_seed7_csv": ["verify", "--scope=zaremba", "--seed=7", "--format=csv"],
    # an evaluation-order change once moved this seed's worst error from 5.696e-15 to 5.761e-15
    "verify_zaremba_seed2_csv": ["verify", "--scope=zaremba", "--seed=2", "--format=csv"],
}


def run(argv: list[str]) -> str:
    """The golden record of one CLI call: exit line, then captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return f"exit {code}\n{buf.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run(CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_in_a_fresh_process(fresh_cli, name):
    proc = fresh_cli(CASES[name])
    assert proc.stderr == ""
    assert f"exit {proc.returncode}\n{proc.stdout}" == (GOLDEN / f"{name}.txt").read_text()


def test_python_dash_m_projheat_prints_the_golden():
    # `python -m projheat`, as run_module runs it: the package's __main__ is the entry point
    proc = run_fresh("import runpy; runpy.run_module('projheat', run_name='__main__', "
                     "alter_sys=True)", CASES["dims_json"])
    assert proc.stderr == ""
    assert f"exit {proc.returncode}\n{proc.stdout}" == (GOLDEN / "dims_json.txt").read_text()


def test_python_dash_m_projheat_cli_prints_what_python_dash_m_projheat_prints():
    # the module form runs main too, so a verification run that way is never silently skipped
    procs = [run_fresh(f"import runpy; runpy.run_module({module!r}, run_name='__main__', "
                       "alter_sys=True)", ["verify", "--scope", "dims"])
             for module in ("projheat.cli", "projheat")]
    assert [(p.returncode, p.stderr) for p in procs] == [(0, "")] * 2
    assert procs[0].stdout == procs[1].stdout and '"scope": "dims"' in procs[0].stdout


def test_t_1e8_direct_is_the_fsum_of_a_70000_term_prefix():
    # the golden's direct trace against the sum written out: past m = 70 000 each term is
    # below 1e-16, under a 1.5e-8 ulp of the trace
    header, row = (GOLDEN / "trace_compare_n1_t1e8_csv.txt").read_text().splitlines()[1:]
    assert header.split(",")[:2] == ["t", "direct"]
    decay = _gaussian(1, 0, 1e-8 / 4.0)
    prefix = math.fsum(_product_dimension(1, 0, m) * decay(m) for m in range(70_000))
    assert float(row.split(",")[1]) == prefix


def test_each_golden_file_has_one_case():
    # a file without a case would never be checked, and a case without a file fails above
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"no golden case named {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / f"{name}.txt").write_text(run(CASES[name]))
