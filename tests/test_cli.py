import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from itmfree import cli
from itmfree.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stefan_default_run(capsys):
    code, out, _ = run(capsys, ["stefan"])
    assert code == 0
    assert "status" in out and "converged" in out
    assert "eta_w" in out and "1.240125" in out


def test_stefan_json_fields(capsys):
    code, out, _ = run(capsys, ["stefan", "--S", "10", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["problem"] == "stefan"
    assert report["result"]["status"] == "converged"
    assert report["result"]["eta_w"] == pytest.approx(0.4400325, abs=1e-5)
    assert report["references"]["neumann_eta_w"] == pytest.approx(0.44003255, abs=1e-6)
    assert report["references"]["asymptotic_eta_w"] == 0.44
    assert "trace" not in report["result"]


def test_stefan_trace(capsys):
    code, out, _ = run(capsys, ["stefan", "--format", "json", "--trace"])
    assert code == 0
    trace = json.loads(out)["result"]["trace"]
    assert trace[0]["j"] == 0 and trace[0]["h_star"] == 30.0
    assert trace[1]["j"] == 1 and trace[1]["h_star"] == 40.0
    assert abs(trace[-1]["gamma"]) <= 1e-6


def test_spread_json(capsys):
    code, out, _ = run(capsys, ["spread", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["U0"] == pytest.approx(0.7518473, abs=1e-6)
    assert report["result"]["eta_w"] == pytest.approx(1.0, abs=1e-6)
    assert abs(report["result"]["dw0"]) <= 1e-9  # U'(0) = 0, not V'(0) = 1
    assert report["references"]["exact_eta_w"] == 1.0


def test_invalid_params_exit_code(capsys):
    code, _, err = run(capsys, ["stefan", "--S", "-1"])
    assert code == 3
    assert "error" in err


def test_no_convergence_exit_code(capsys):
    code, _, _ = run(capsys, ["stefan", "--max-iter", "2"])
    assert code == 2


def test_singular_exit_code(capsys):
    # a negative boundary height makes the shifted variable nonpositive
    code, _, err = run(capsys, ["spread", "--H", "-2.0"])
    assert code == 4
    assert "error" in err


def test_table_stefan_csv_header_and_rows(capsys):
    code, out, _ = run(capsys, ["table", "stefan", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "S,h_star,dU0,eta_w,eta_w_asymptotic,delta"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[0]) == 0.1
    assert float(first[3]) == pytest.approx(2.5139442, abs=1e-5)


def test_table_spread_json(capsys):
    code, out, _ = run(capsys, ["table", "spread", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [row["s_star"] for row in rows] == [0.5, 1.0]
    for row in rows:
        assert row["U0"] == pytest.approx(0.7518473, abs=1e-6)
        assert row["eta_w"] == pytest.approx(1.0, abs=1e-6)


def test_table_human_format(capsys):
    code, out, _ = run(capsys, ["table", "stefan"])
    assert code == 0
    header = out.splitlines()[0].split()
    assert header == ["S", "h_star", "dU0", "eta_w", "eta_w_asymptotic", "delta"]


def test_profile_csv_contract(capsys):
    code, out, _ = run(capsys, ["profile", "--problem", "spread", "--points", "10"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eta,U,dU"
    assert len(lines) == 12  # header + 11 samples
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(1.0, abs=1e-6)   # eta_w
    assert last[1] == pytest.approx(0.5, abs=1e-6)   # U = H at the front
    assert last[2] == pytest.approx(-0.8, abs=1e-6)  # dU = L/(5 H^3)


def test_reconstruct_contract(capsys):
    code, out, _ = run(capsys, ["reconstruct", "--t", "4.0", "--points", "10"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# t=4 x_w=")
    assert lines[1] == "x,u,du_dx"
    x_w = float(lines[0].split("x_w=")[1])
    assert x_w == pytest.approx(2.0 * 1.2401253, abs=1e-5)
    assert float(lines[-1].split(",")[0]) == pytest.approx(x_w, abs=1e-8)


def test_reconstruct_identity_at_t1(capsys):
    code_p, out_p, _ = run(capsys, ["profile", "--points", "10"])
    code_r, out_r, _ = run(capsys, ["reconstruct", "--t", "1.0", "--points", "10"])
    assert code_p == 0 and code_r == 0
    assert out_p.splitlines()[1:] == out_r.splitlines()[2:]


def test_reconstruct_rejects_nonpositive_t(capsys):
    for t in ("0", "nan", "inf"):
        code, out, err = run(capsys, ["reconstruct", "--t", t])
        assert code == 3
        assert out == ""
        assert err.startswith("error: t must be positive")


@pytest.mark.parametrize("argv", [["profile"], ["reconstruct", "--t", "1"]])
def test_points_below_one_rejected_before_solving(monkeypatch, capsys, argv):
    def no_solve(*args):
        raise AssertionError("solved before checking --points")

    monkeypatch.setattr(cli, "secant_solve", no_solve)
    code, out, err = run(capsys, argv + ["--points", "0"])
    assert code == 3
    assert out == ""
    assert err == "error: points must be at least 1, got 0\n"


def test_check_invariance(capsys):
    code, out, _ = run(capsys, [
        "check-invariance", "--n", "0", "--alpha", "0", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["gamma"] == 2.0
    assert report["pde_residual"] == 0.0
    assert report["invariant"] is True


def test_check_invariance_violation(capsys):
    code, out, _ = run(capsys, [
        "check-invariance", "--n", "1", "--alpha", "1", "--gamma", "3",
        "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["pde_residual"] != 0.0
    assert report["invariant"] is False


def test_out_flag_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["table", "stefan", "--format", "csv", "--out", str(a)]) == 0
    assert main(["table", "stefan", "--format", "csv", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"S,h_star,dU0,eta_w,eta_w_asymptotic,delta\n")


def test_custom_tol_reaches_tighter_stop(capsys):
    code, out, _ = run(capsys, ["stefan", "--tol", "1e-9", "--format", "json", "--trace"])
    assert code == 0
    trace = json.loads(out)["result"]["trace"]
    assert abs(trace[-1]["gamma"]) <= 1e-9


@pytest.mark.parametrize("argv, code, status", [
    (["spread", "--H", "0.1"], 4, "singular_integration"),
    (["spread", "--H", "2", "--L", "0.5"], 2, "secant_breakdown"),
    (["stefan", "--max-iter", "2"], 2, "max_iter_exceeded"),
])
def test_failed_solve_reports_its_status(capsys, argv, code, status):
    exit_code, out, err = run(capsys, argv + ["--format", "json"])
    assert exit_code == code
    result = json.loads(out)["result"]
    assert result["status"] == status
    detail = f": {result['message']}" if result["message"] else ""
    assert err == f"error: solve did not converge: {status}{detail}\n"
    if status == "singular_integration":
        # the first guess already breaks, at the abscissa the message names
        assert result["h_star"] == 0.5 and result["iterations"] == 0
        assert str(result["abscissa"]) in result["message"]
    elif status == "secant_breakdown":
        assert result["message"].startswith(f"secant step from h* = {result['h_star']!r}")
        assert math.isnan(result["abscissa"])
    else:
        assert result["message"] == "" and result["iterations"] == 2


NON_CONVERGING = [
    (["table", "stefan", "--max-iter", "2"], "row S=0.1"),
    (["profile", "--max-iter", "2"], "solve"),
    (["reconstruct", "--t", "4", "--max-iter", "2"], "solve"),
]


@pytest.mark.parametrize("argv, what", NON_CONVERGING)
def test_non_convergence_names_status_on_stderr(capsys, argv, what):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {what} did not converge: max_iter_exceeded\n"


@pytest.mark.parametrize("argv", [argv for argv, _ in NON_CONVERGING] + [["stefan", "--S", "-1"]])
def test_failed_run_leaves_out_file_untouched(tmp_path, capsys, argv):
    kept, missing = tmp_path / "kept.csv", tmp_path / "missing.csv"
    kept.write_bytes(b"earlier output\n")
    assert main(argv + ["--out", str(kept)]) != 0
    assert main(argv + ["--out", str(missing)]) != 0
    capsys.readouterr()
    assert kept.read_bytes() == b"earlier output\n"
    assert not missing.exists()


def test_check_invariance_csv(capsys):
    code, out, _ = run(capsys, ["check-invariance", "--n", "0", "--alpha", "0", "--format", "csv"])
    assert code == 0
    assert out == ("n,alpha,beta,gamma,pde_residual,origin_residual,invariant\n"
                   "0,0,,2,0,0,True\n")


def test_csv_quotes_a_cell_holding_a_comma(capsys):
    # the omega_non_positive message holds "g(w*(0), w*'(0))/C"
    code, out, err = run(capsys, ["spread", "--H", "0.25", "--L", "-2", "--h0", "100",
                                  "--h1", "316", "--format", "csv"])
    assert code == 2
    header, row = csv.reader(io.StringIO(out))
    assert len(header) == len(row)
    message = dict(zip(header, row))["result.message"]
    assert message.startswith("g(w*(0), w*'(0))/C = -") and message.endswith(" is not positive")
    assert err == f"error: solve did not converge: omega_non_positive: {message}\n"


@pytest.mark.parametrize("cell, written", [
    ('say "hi"', '"say ""hi"""'), ("two\nlines", '"two\nlines"'), ("cr\r", '"cr\r"'),
    ("a,b", '"a,b"'), ('",\n', '""",\n"'), ("plain", "plain")])
def test_csv_quotes_only_the_cells_that_need_it(cell, written):
    # each character that needs quoting, alone, makes its cell quoted; every
    # other cell is written unchanged
    grid = [["name", "value"], [cell, "1.5"], ["x", "2"]]
    text = cli._csv(grid)
    assert text == f"name,value\n{written},1.5\nx,2\n"
    assert list(csv.reader(io.StringIO(text, newline=""))) == grid


@pytest.mark.parametrize("fmt, line", [
    ("csv", "3,-0.2,,5,0,0,True"),
    ("table", "beta: "),
])
def test_missing_beta_prints_an_empty_value(capsys, fmt, line):
    code, out, _ = run(capsys, ["check-invariance", "--n", "3", "--alpha", "-0.2",
                                "--coefficient", "0", "--origin", "neumann", "--format", fmt])
    assert code == 0
    assert line in out.splitlines()
    assert "None" not in out


def _mask_wall_time(text):
    return re.sub(r"(wall_time_s\"?: )\S+", r"\1X", text)


@pytest.mark.parametrize("argv", [
    ["stefan"],
    ["table", "spread"],
    ["profile", "--points", "10"],
    ["reconstruct", "--t", "4", "--points", "10"],
    ["check-invariance", "--n", "0", "--alpha", "0"],
])
def test_out_writes_the_stdout_bytes(tmp_path, capsys, argv):
    code, out, _ = run(capsys, argv)
    path = tmp_path / "out.txt"
    assert main(argv + ["--out", str(path)]) == code == 0
    assert capsys.readouterr().out == ""
    assert _mask_wall_time(path.read_text()) == _mask_wall_time(out)


@pytest.mark.parametrize("target, error", [("missing/out.txt", errno.ENOENT), (".", errno.EISDIR)])
def test_unwritable_out_exits_3(tmp_path, capsys, target, error):
    path = tmp_path / target
    code, out, err = run(capsys, ["table", "stefan", "--out", str(path)])
    assert code == 3
    assert out == ""
    assert err == f"error: cannot write {path}: {os.strerror(error)}\n"


def test_human_report_heads_each_block(capsys):
    code, out, _ = run(capsys, ["stefan", "--trace"])
    assert code == 0
    lines = out.splitlines()
    result = lines.index("result:")
    assert lines[result - 1] == "  max_iter: 50"  # the last config line
    assert lines[result + 1] == "  status: converged"
    trace = lines.index("  trace:")
    assert lines[trace + 1].split() == ["j", "h_star", "gamma", "omega", "s_j"]
    rows = lines[trace + 2:lines.index("  eta_w: 1.24012527")]
    assert [row.split()[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert all(row.startswith("    ") for row in rows)
    assert lines.index("references:") > lines.index("  dU0: -0.910777075")


def test_human_report_prints_nine_significant_digits(capsys):
    code, out, _ = run(capsys, ["stefan", "--S", "1e160"])
    assert code == 2
    assert "  S: 1e+160\n" in out.split("config:")[0]
    assert "  h0: 8.14872351e-319\n" in out


def test_human_report_prints_an_empty_trace_as_its_heading(capsys):
    code, out, _ = run(capsys, ["spread", "--H", "0.1", "--trace"])
    assert code == 4
    lines = out.splitlines()
    trace = lines.index("  trace:")
    assert lines[trace - 1] == "  abscissa: 0.4985"
    assert lines[trace + 1] == "  eta_w: nan"


@pytest.mark.parametrize("argv", [
    ["table", "stefan", "--trace"],
    ["profile", "--format", "csv"],
    ["reconstruct", "--t", "1", "--trace"],
    ["check-invariance", "--n", "0", "--alpha", "0", "--max-iter", "3"],
])
def test_unread_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["spread", "--H", "nan"], "H must be finite and nonzero, got nan"),
    (["spread", "--L", "inf"], "L must be finite, got inf"),
    (["stefan", "--S", "inf"], "S must be positive and finite, got inf"),
    (["spread", "--H", "1e200"], "H^3 must be a finite nonzero float, got H = 1e+200"),
    (["spread", "--H", "1e-200"], "H^3 must be a finite nonzero float, got H = 1e-200"),
    # every rejected input is exit 3, a degenerate exponent too
    (["check-invariance", "--n", "1", "--alpha", "-1"], "n*alpha + 1 = 0 for n=1.0, alpha=-1.0"),
    # the default guesses would be 0: say so, not that h0 and h1 coincide
    (["stefan", "--S", "1e300"], "the estimated root h* = 0.0 underflows for S = 1e+300"),
    # beta belongs to a Neumann origin; under the default Dirichlet one it was ignored
    (["check-invariance", "--n", "3", "--alpha", "-0.2", "--beta", "0.5", "--coefficient", "1"],
     "a Dirichlet origin has no beta, got beta=0.5"),
    # a Neumann origin with B != 0 and no beta passed its origin balance unchecked
    (["check-invariance", "--n", "3", "--alpha", "-0.2", "--coefficient", "1",
      "--origin", "neumann"], "a Neumann origin with coefficient=1.0 needs a beta"),
    # it ran, and reported more iterations than the bound
    (["stefan", "--max-iter", "0"], "max_iter must be at least 1, got 0"),
])
def test_non_finite_params_rejected(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["spread", "--H", "2", "--h0", "1e308", "--h1", "1e307"],  # h* H overflows
    ["stefan", "--S", "1e300", "--h0", "1e300", "--h1", "1e299"],  # the slope overflows
])
def test_overflowing_start_state_is_singular(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 4
    result = json.loads(out)["result"]
    assert result["status"] == "singular_integration"
    assert result["iterations"] == 0 and result["h_star"] == float(argv[-3])
    assert result["abscissa"] == 0.5  # s*: the start state itself is not finite
    assert err == f"error: solve did not converge: singular_integration: {result['message']}\n"


@pytest.mark.parametrize("argv", [
    ["stefan", "--S", "1", "--h0", "1e-290", "--h1", "1e-280", "--max-iter", "1"],
    ["stefan", "--S", "1e-300", "--max-iter", "1", "--step", "0.05"],
])
def test_overflowing_recovery_exits_2_with_a_report(capsys, argv):
    # omega^(delta - 1) overflows for the tiny omega of the last iterate
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 2
    result = json.loads(out)["result"]
    assert result["status"] == "max_iter_exceeded"
    assert result["dw0"] == -math.inf and result["w0"] == 1.0
    assert err == "error: solve did not converge: max_iter_exceeded\n"


# Numeric flags per subcommand. --step and --s-star are held fixed: the step
# count s*/step is work the caller asks for, and could be about 1e300.
_FUZZ_FLAGS = {
    "stefan": ("--S", "--h0", "--h1", "--tol"),
    "spread": ("--H", "--L", "--h0", "--h1", "--tol"),
    "table stefan": ("--tol",),
    "table spread": ("--tol",),
    "profile": ("--S", "--H", "--L", "--h0", "--h1", "--tol"),
    "reconstruct": ("--S", "--H", "--L", "--t", "--h0", "--h1", "--tol"),
    "check-invariance": ("--n", "--alpha", "--beta", "--gamma", "--coefficient"),
}
_REQUIRED = {"--t", "--n", "--alpha"}
_FLOATS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, -1e-300,
                     5e-324, -5e-324, 1e-310, 0.0, -0.0, 1.0, -1.0]),
    st.floats(),  # includes the subnormals, +-inf and nan
)


@st.composite
def _fuzz_argv(draw, command):
    argv = command.split()
    for flag in _FUZZ_FLAGS[command]:
        if flag in _REQUIRED or draw(st.booleans()):
            argv.append(f"{flag}={draw(_FLOATS)!r}")  # "=": "-1e-300" is not an option
    if command != "check-invariance":
        argv.append(f"--max-iter={draw(st.sampled_from([0, 1, 3]))}")
    if command in ("stefan", "spread", "profile", "reconstruct"):
        argv.append("--step=0.05")
    if command in ("profile", "reconstruct"):
        argv.append(f"--points={draw(st.sampled_from([-1, 0, 1, 5]))}")
        argv.append(f"--problem={draw(st.sampled_from(['stefan', 'spread']))}")
    if command in ("stefan", "spread", "check-invariance"):
        argv.append(f"--format={draw(st.sampled_from(['table', 'csv', 'json']))}")
    if command in ("stefan", "spread") and draw(st.booleans()):
        argv.append("--trace")
    return argv


@example(argv=["stefan", "--S=1.0", "--h0=1e-290", "--h1=1e-280", "--max-iter=1"])
@example(argv=["stefan", "--S=1e-300", "--max-iter=1", "--step=0.05"])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.sampled_from(list(_FUZZ_FLAGS)).flatmap(_fuzz_argv))
def test_every_float_input_exits_with_a_known_code(argv):
    # in-process, so an escaping exception fails the test instead of exiting 1
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)


def test_cli_import_leaves_numpy_unloaded():
    # numpy is a test dependency only; importing it would about triple the CLI's import time
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, itmfree.cli; assert 'numpy' not in sys.modules, 'numpy imported'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
