import contextlib
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from golden.regenerate import mask_wall_time
from itmfree import cli
from itmfree.cli import main
from itmfree.itm import run_config, secant_solve, solution_profile
from itmfree.problems import stefan_default_guesses
from itmfree.reference import neumann_eta_w
from itmfree.similarity import reconstruct_physical


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _not_json(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as RFC 8259 does."""
    return json.loads(text, parse_constant=_not_json)


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
    h0, h1 = stefan_default_guesses(1.0)
    assert trace[0]["j"] == 0 and trace[0]["h_star"] == h0
    assert trace[1]["j"] == 1 and trace[1]["h_star"] == h1
    assert abs(trace[-1]["gamma"]) <= 1e-6


RESULT_KEYS = ["status", "omega", "h_star", "eta_w", "U0", "dU0", "iterations", "message",
               "abscissa"]


@pytest.mark.parametrize("argv", [
    ["stefan"], ["spread"], ["stefan", "--S", "1e-300"],
    # S = 0.2 is not tabulated, and S = 50 is, yet both start from the estimated pair:
    # it brackets the root where Table 1's pair (1e-3, 1e-2) at S = 50 does not
    ["stefan", "--S", "0.2"], ["stefan", "--S", "50"]])
def test_both_problems_report_one_set_of_result_keys(capsys, argv):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert list(strict_loads(out)["result"]) == RESULT_KEYS
    code, out, _ = run(capsys, argv + ["--format", "json", "--trace"])
    assert code == 0
    assert list(strict_loads(out)["result"]) == RESULT_KEYS + ["trace"]


def test_spread_json(capsys):
    code, out, _ = run(capsys, ["spread", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["U0"] == pytest.approx(0.7518473, abs=1e-6)
    assert report["result"]["eta_w"] == pytest.approx(1.0, abs=1e-6)
    assert abs(report["result"]["dU0"]) <= 1e-9  # U'(0) = 0, not V'(0) = 1
    assert report["references"]["exact_eta_w"] == 1.0


def test_invalid_params_exit_code(capsys):
    code, _, err = run(capsys, ["stefan", "--S", "-1"])
    assert code == 3
    assert "error" in err


def test_no_convergence_exit_code(capsys):
    code, _, _ = run(capsys, ["stefan", "--max-iter", "2"])
    assert code == 2


def test_entry_point_exits_with_the_code_of_main():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "itmfree.cli", "stefan", "--max-iter", "2"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr


def test_wall_time_lies_within_the_run(capsys):
    begin = time.perf_counter()
    code, out, _ = run(capsys, ["stefan", "--format", "json"])
    elapsed = time.perf_counter() - begin
    assert code == 0
    assert 0.0 <= json.loads(out)["wall_time_s"] <= elapsed


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
    assert {len(row) for row in csv.reader(lines)} == {6}
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
    assert lines[0] == "x,u,du_dx"
    assert len(lines) == 12  # header + 11 samples
    x_w = float(lines[-1].split(",")[0])  # the front is the last row
    assert x_w == pytest.approx(2.0 * 1.2401253, abs=1e-5)


@pytest.mark.parametrize("problem", ["stefan", "spread"])
@pytest.mark.parametrize("points, t", [(50, 0.3), (100, 1.0), (1000, 4.0), (100, 4.0),
                                      (100, 1e5)])
def test_reconstruct_is_plain_csv_ending_at_the_front(capsys, problem, points, t):
    code, out, _ = run(capsys, ["reconstruct", "--problem", problem, "--points", str(points),
                                "--t", repr(t)])
    assert code == 0
    assert out.startswith("x,u,du_dx\n")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == points + 2 and {len(row) for row in rows} == {3}
    # the front x_w = eta_w t^(1/gamma) is the last row's x, to the bit
    spec = cli.PROBLEMS[problem]
    (bvp, scaling), _, config, result = cli._solve(spec, {"tol": 1e-6, "max_iter": 50,
                                                          "points": points})
    profile = solution_profile(bvp, scaling, config, result)
    phys = reconstruct_physical(profile, spec.exponents(), result.s, t)
    assert phys.x[-1] == phys.x_w
    assert rows[-1][0] == format(phys.x_w, ".9g")


# the benchmark's 61-case Stefan sweep and 30-case spreading grid
_SWEEP = [["--S", repr(10.0 ** (k / 10))] for k in range(-30, 31)]
_GRID = [["--H", repr(H), "--L", repr(L)]
         for H in (0.1, 0.25, 0.5, 1.0, 2.0) for L in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)]


@pytest.mark.parametrize("problem, cases, converged", [("stefan", _SWEEP, 61),
                                                       ("spread", _GRID, 13)])
def test_profile_of_every_converged_case_spans_the_report(capsys, problem, cases, converged):
    # the rows are nodes of the solve's own last iterate: the first is the
    # report's (0, U0, dU0), the last abscissa its eta_w. A second integration
    # from eta_w at --points steps printed U'(0) = 0.0124 for the zero-flux
    # (H, L) = (0.25, -0.5), and broke (exit 4) at (0.25, -2)
    seen = 0
    for params in cases:
        code, out, _ = run(capsys, [problem, *params, "--format", "csv"])
        header, row = csv.reader(io.StringIO(out))
        assert len(header) == len(row)
        report = {k.removeprefix("result."): v for k, v in zip(header, row)}
        assert code == {"converged": 0, "singular_integration": 4}.get(report["status"], 2)
        if report["status"] != "converged":
            continue
        seen += 1
        code, out, err = run(capsys, ["profile", "--problem", problem, *params])
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert {len(row) for row in rows} == {3}
        assert rows[1] == ["0", report["U0"], report["dU0"]]
        assert rows[-1][0] == report["eta_w"]
    assert seen == converged


@pytest.mark.parametrize("problem", ["stefan", "spread"])
@pytest.mark.parametrize("points", [1, 3, 10, 1000])
def test_points_sets_the_row_count(capsys, problem, points):
    for command in (["profile"], ["reconstruct", "--t", "4"]):
        code, out, _ = run(capsys, command + ["--problem", problem, "--points", str(points)])
        assert code == 0
        assert len(out.splitlines()) == points + 2  # the header and points + 1 rows


@pytest.mark.parametrize("problem, points, steps", [
    ("stefan", 1, 500), ("stefan", 3, 501), ("stefan", 1000, 1000),
    ("spread", 10, 1000), ("spread", 7, 1001), ("spread", 3000, 3000)])
def test_points_sets_the_smallest_step_count_not_below_the_problems(monkeypatch, problem,
                                                                     points, steps):
    # every row is a node of the solve, which is never coarser than the default one
    monkeypatch.setattr(cli, "secant_solve", lambda *args: None)
    _, _, config, _ = cli._solve(cli.PROBLEMS[problem], {"points": points, "tol": 1e-6,
                                                         "max_iter": 50})
    assert round(config.s_star / config.step) == steps


def test_reconstruct_identity_at_t1(capsys):
    code_p, out_p, _ = run(capsys, ["profile", "--points", "10"])
    code_r, out_r, _ = run(capsys, ["reconstruct", "--t", "1.0", "--points", "10"])
    assert code_p == 0 and code_r == 0
    assert out_p.splitlines()[1:] == out_r.splitlines()[1:]


def test_reconstruct_rejects_nonpositive_t(capsys):
    for t in ("0", "nan", "inf"):
        code, out, err = run(capsys, ["reconstruct", "--t", t])
        assert code == 3
        assert out == ""
        assert err.startswith("error: t must be positive")


@pytest.mark.parametrize("problem, steps", [("stefan", 506), ("spread", 1012)])
def test_subnormal_s_star_rejected_before_solving(monkeypatch, capsys, problem, steps):
    # s*/n rounds to a subnormal step, and s*/step no longer rounds back to n
    def no_solve(*args):
        raise AssertionError("solved a step count other than n")

    monkeypatch.setattr(cli, "secant_solve", no_solve)
    code, out, err = run(capsys, [problem, "--s-star", "1e-320", "--h0", "1", "--h1", "2"])
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: s_star = 1e-320 would run {steps} RK4 steps of ")


@pytest.mark.parametrize("argv", [["profile"], ["reconstruct", "--t", "1"]])
def test_points_below_one_rejected_before_solving(monkeypatch, capsys, argv):
    def no_solve(*args):
        raise AssertionError("solved before checking --points")

    monkeypatch.setattr(cli, "secant_solve", no_solve)
    # 10^5 rows take about 90 MB; 10^8 would also be past run_config's ceiling of steps
    for points in (0, 10 ** 5 + 1, 10 ** 8):
        code, out, err = run(capsys, argv + ["--points", str(points)])
        assert code == 3
        assert out == ""
        assert err == f"error: points must lie in [1, 100000], got {points}\n"


@pytest.mark.parametrize("argv", [["profile"], ["reconstruct", "--t", "1"]])
def test_points_at_the_bound_reach_the_solve(monkeypatch, argv):
    class Solved(Exception):
        pass

    def solve(problem, scaling, config):
        raise Solved(round(config.s_star / config.step))

    monkeypatch.setattr(cli, "secant_solve", solve)
    with pytest.raises(Solved, match="^100000$"):
        main(argv + ["--points", "100000"])


# (subcommand, --problem, a parameter of another problem)
_FOREIGN = [(argv, problem, flag)
            for argv in ("profile", "reconstruct --t 4")
            for problem, spec in cli.PROBLEMS.items()
            for other in cli.PROBLEMS.values()
            for flag in other.params if flag not in spec.params]


@pytest.mark.parametrize("argv, problem, flag", _FOREIGN)
def test_foreign_parameter_rejected_before_solving(monkeypatch, capsys, argv, problem, flag):
    def no_solve(*args):
        raise AssertionError(f"solved {problem} with --{flag} unread")

    monkeypatch.setattr(cli, "secant_solve", no_solve)
    code, out, err = run(capsys, argv.split() + ["--problem", problem, f"--{flag}", "1"])
    assert code == 3
    assert out == ""
    assert err == f"error: --{flag} is not a parameter of {problem}\n"


@pytest.mark.parametrize("argv, iterations, eta_w, tol", [
    # the default pairs are meant for s* = 1/2; for another s* they scale by
    # (s*/0.5)^(sigma/delta): x(2 s*)^2 for spreading, x(2 s*)^-4 for Stefan.
    # The default step keeps the problem's step count at every s*
    (["spread", "--s-star", "2", "--h0", "8", "--h1", "1.6"], 5, 1.0, 1e-8),
    (["stefan", "--S", "1", "--s-star", "4",
      "--h0", repr(stefan_default_guesses(1.0)[0] / 4096),
      "--h1", repr(stefan_default_guesses(1.0)[1] / 4096)], 4, neumann_eta_w(1.0), 1e-9),
    # without --h0 and --h1 run_config scales the default pair itself
    (["spread", "--s-star", "2"], 5, 1.0, 1e-8),
    (["stefan", "--S", "1", "--s-star", "4"], 4, neumann_eta_w(1.0), 1e-9),
    # the problem's 500 steps at s* = 1e50, where a fixed step of 1e-3 would be 1e53
    (["stefan", "--S", "1", "--s-star", "1e50"], 4, neumann_eta_w(1.0), 1e-9),
])
def test_s_star_with_scaled_guesses(capsys, argv, iterations, eta_w, tol):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["iterations"] == iterations
    assert abs(result["eta_w"] - eta_w) <= tol


@pytest.mark.parametrize("problem, s_star, steps", [
    ("stefan", 1e50, 500), ("spread", 2.0, 1000), ("spread", 1e-100, 1000)])
def test_s_star_keeps_the_problems_step_count(monkeypatch, problem, s_star, steps):
    # a fixed step of 1e-3 at s* = 1e50 would be about 1e53 RK4 steps per Gamma evaluation
    monkeypatch.setattr(cli, "secant_solve", lambda *args: None)
    _, _, config, _ = cli._solve(cli.PROBLEMS[problem], {"s_star": s_star, "tol": 1e-6,
                                                         "max_iter": 50})
    assert round(config.s_star / config.step) == steps


def _finite_or_none(v):
    return None if isinstance(v, float) and not math.isfinite(v) else v


@pytest.mark.parametrize("problem", ["stefan", "spread"])
@pytest.mark.parametrize("s_star", [0.5, 4.0])
@pytest.mark.parametrize("steps", [1, 7, 500, 2000])
def test_steps_is_the_step_count_that_runs(capsys, problem, s_star, steps):
    # the report's step is s*/n, and the solve is the library's at n steps, bit for bit
    code, out, _ = run(capsys, [problem, "--s-star", repr(s_star), "--steps", str(steps),
                                "--format", "json", "--trace"])
    report = strict_loads(out)
    assert report["config"]["step"] == s_star / steps
    built = cli.PROBLEMS[problem].build(report["params"])
    result = secant_solve(*built, run_config(*built, s_star=s_star, steps=steps))
    assert code == {"converged": 0, "singular_integration": 4}.get(result.status.value, 2)
    expected = {"status": result.status.value, "omega": result.omega, "h_star": result.h_star,
                "eta_w": result.s, "U0": result.w0, "dU0": result.dw0,
                "iterations": result.iterations, "message": result.message,
                "trace": [it.h_star for it in result.trace]}
    got = {**report["result"], "trace": [it["h_star"] for it in report["result"]["trace"]]}
    assert {k: got[k] for k in expected} == {k: _finite_or_none(v) for k, v in expected.items()}


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


@pytest.mark.parametrize("beta, invariant", [("-1e-12", False), ("-1.5e-12", False),
                                              ("-5e-13", True)])
def test_check_invariance_threshold(capsys, beta, invariant):
    # n = alpha = 1 gives gamma = 1 and an origin residual of exactly -beta
    code, out, _ = run(capsys, ["check-invariance", "--n", "1", "--alpha", "1",
                                "--origin", "neumann", f"--beta={beta}", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["origin_residual"] == -float(beta)
    assert report["invariant"] is invariant


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
    # the default pair at s* = 1e-100 is (2e-200, 4e-201): (V - h^(1/2) eta)^3 underflows to 0
    (["spread", "--s-star", "1e-100"], 4, "singular_integration"),
    # the default pair (5e-324, 5e-324) is not two floats, but one given guess replaces it,
    # and the pair that runs is valid: it breaks down, it is not an invalid input
    (["stefan", "--S", "3e162", "--h0", "1"], 2, "secant_breakdown"),
    (["stefan", "--S", "3e162", "--h1", "1"], 2, "secant_breakdown"),
])
def test_failed_solve_reports_its_status(capsys, argv, code, status):
    exit_code, out, err = run(capsys, argv + ["--format", "json"])
    assert exit_code == code
    report = strict_loads(out)
    result = report["result"]
    assert result["status"] == status
    detail = f": {result['message']}" if result["message"] else ""
    assert err == f"error: solve did not converge: {status}{detail}\n"
    if status == "singular_integration":
        # the first guess already breaks, at the abscissa the message names
        assert result["h_star"] == report["config"]["h0"] and result["iterations"] == 0
        assert str(result["abscissa"]) in result["message"]
    elif status == "secant_breakdown":
        assert result["message"].startswith(f"secant step from h* = {result['h_star']!r}")
        assert result["abscissa"] is None  # nan, which JSON writes as null
    else:
        assert result["message"] == "" and result["iterations"] == 2


NON_CONVERGING = [
    (["table", "stefan", "--max-iter", "2"], "row S=0.1,h0=600.0,h1=700.0"),
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
    # the omega_non_positive message holds "g(w*(0), w*'(0))"
    code, out, err = run(capsys, ["spread", "--H", "0.25", "--L", "-2", "--h0", "100",
                                  "--h1", "316", "--format", "csv"])
    assert code == 2
    header, row = csv.reader(io.StringIO(out))
    assert len(header) == len(row)
    message = dict(zip(header, row))["result.message"]
    assert message.startswith("g(w*(0), w*'(0)) = -") and message.endswith(" is not positive")
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
    assert mask_wall_time(path.read_text()) == mask_wall_time(out)


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
    assert lines[result + 4:result + 7] == [
        "  eta_w: 1.24012527", "  U0: 1", "  dU0: -0.910777075"]
    trace = lines.index("  trace:")
    assert lines[trace - 1] == "  abscissa: nan"
    assert lines[trace + 1].split() == ["j", "h_star", "gamma", "omega", "s_j"]
    rows = lines[trace + 2:lines.index("references:")]
    assert [row.split()[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert all(row.startswith("    ") for row in rows)


def test_human_report_prints_nine_significant_digits(capsys):
    code, out, _ = run(capsys, ["stefan", "--S", "1e160"])
    assert code == 2
    assert "  S: 1e+160\n" in out.split("config:")[0]
    assert "  h0: 6.39997816e-319\n" in out


def test_human_report_prints_an_empty_trace_as_its_heading(capsys):
    code, out, err = run(capsys, ["spread", "--H", "0.1", "--trace"])
    assert code == 4
    # the spreading body's raise: its f-string message doubles its braces for str.format
    assert err.startswith("error: solve did not converge: singular_integration: "
                          "V - h^(1/2) eta = -")
    lines = out.splitlines()
    trace = lines.index("  trace:")
    assert lines[trace - 1] == "  abscissa: 0.4985"
    assert lines[trace + 1] == "references:"


@pytest.mark.parametrize("argv", [
    ["table", "stefan", "--trace"],
    ["profile", "--format", "csv"],
    ["reconstruct", "--t", "1", "--trace"],
    ["check-invariance", "--n", "0", "--alpha", "0", "--max-iter", "3"],
    # the step length flag is gone, and no abbreviation of --steps stands for it
    ["stefan", "--step", "0.01"],
    ["stefan", "--steps", "1.5"],
])
def test_unread_flags_are_rejected(capsys, argv):
    # a usage error is an invalid input, exit 3; argparse's own 2 would read as non-convergence
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    reason = "argument --steps: invalid int value" if "--steps" in argv else "unrecognized arguments"
    assert f"error: {reason}" in err


@pytest.mark.parametrize("argv, message", [
    (["spread", "--H", "nan"], "H^3 must be a finite nonzero float, got H = nan"),
    (["spread", "--L", "inf"], "L must be finite, got inf"),
    (["stefan", "--S", "inf"], "S must be positive and finite, got inf"),
    (["spread", "--H", "1e200"], "H^3 must be a finite nonzero float, got H = 1e+200"),
    (["spread", "--H", "1e-200"], "H^3 must be a finite nonzero float, got H = 1e-200"),
    # every rejected input is exit 3, a degenerate exponent too
    (["check-invariance", "--n", "1", "--alpha", "-1"], "n*alpha + 1 = 0 for n=1.0, alpha=-1.0"),
    # the default guesses would be 0: say so, not that h0 and h1 coincide
    (["stefan", "--S", "1e300"],
     "the guesses (0.0, 0.0) at s_star = 0.5 are not two distinct positive finite floats"),
    # beta belongs to a Neumann origin; under the default Dirichlet one it was ignored
    (["check-invariance", "--n", "3", "--alpha", "-0.2", "--beta", "0.5", "--coefficient", "1"],
     "a Dirichlet origin has no beta, got beta=0.5"),
    # a Neumann origin with B != 0 and no beta passed its origin balance unchecked
    (["check-invariance", "--n", "3", "--alpha", "-0.2", "--coefficient", "1",
      "--origin", "neumann"], "a Neumann origin with coefficient=1.0 needs a beta"),
    # it ran, and reported more iterations than the bound
    (["stefan", "--max-iter", "0"], "max_iter must be at least 1, got 0"),
    # from S = 2.3e162 the estimate is a subnormal so coarse that 0.75 h* rounds back to it
    (["stefan", "--S", "3e162"], "the guesses (5e-324, 5e-324) at s_star = 0.5 are not two "
                                 "distinct positive finite floats"),
    # 1/(2S) overflows: the pair would be (inf, inf)
    (["stefan", "--S", "1e-310"],
     "the guesses (inf, inf) at s_star = 0.5 are not two distinct positive finite floats"),
    # an --s-star the default guesses cannot be mapped to: 0.0 ** -4 raises,
    # and (2e200) ** -4 underflows and (2e200) ** 2 overflows
    *[([problem, f"--s-star={value}"], f"s_star must be positive and finite, got {value}")
      for problem in ("stefan", "spread") for value in ("0.0", "-1.0", "nan", "inf")],
    (["stefan", "--s-star", "1e200"], "the guesses (0.0, 0.0) at s_star = 1e+200 are not two "
                                      "distinct positive finite floats"),
    (["spread", "--s-star", "1e200"], "the guesses (inf, inf) at s_star = 1e+200 are not two "
                                      "distinct positive finite floats"),
    # it converged after one iteration, 0.18 off the Neumann root: |Gamma| <= inf always holds
    (["stefan", "--tol", "inf"], "tol must be positive and finite, got inf"),
    # n*alpha + 1 overflows: gamma was 2/inf = 0 and the PDE residual nan, exit 0
    (["check-invariance", "--n", "1e308", "--alpha", "1e308"],
     "n*alpha + 1 = inf for n=1e+308, alpha=1e+308"),
    # a given non-finite exponent: the PDE residual was nan or inf, exit 0
    (["check-invariance", "--n", "inf", "--alpha", "0", "--gamma", "2"],
     "n must be finite, got inf"),
    (["check-invariance", "--n", "0", "--alpha", "0", "--gamma", "inf"],
     "gamma must be finite, got inf"),
    # 10^8 RK4 steps per Gamma evaluation, about 100 s each
    (["stefan", "--steps", "100000000"], "steps must be an int in [1, 10000000], got 100000000"),
])
def test_non_finite_params_rejected(monkeypatch, capsys, argv, message):
    def no_solve(*args):
        raise AssertionError("solved a rejected input")

    monkeypatch.setattr(cli, "secant_solve", no_solve)
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
    result = strict_loads(out)["result"]
    assert result["status"] == "singular_integration"
    assert result["iterations"] == 0 and result["h_star"] == float(argv[-3])
    assert result["abscissa"] == 0.5  # s*: the start state itself is not finite
    assert err == f"error: solve did not converge: singular_integration: {result['message']}\n"


@pytest.mark.parametrize("argv", [
    ["stefan", "--S", "1", "--h0", "1e-290", "--h1", "1e-280", "--max-iter", "1"],
    ["stefan", "--S", "1e-300", "--max-iter", "1", "--steps", "10"],
])
def test_overflowing_recovery_exits_2_with_a_report(capsys, argv):
    # omega^(delta - 1) overflows for the tiny omega of the last iterate
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 2
    result = strict_loads(out)["result"]
    assert result["status"] == "max_iter_exceeded"
    assert result["dU0"] is None and result["U0"] == 1.0  # -inf, which JSON writes as null
    assert err == "error: solve did not converge: max_iter_exceeded\n"
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 2
    header, row = csv.reader(io.StringIO(out))
    assert dict(zip(header, row))["result.dU0"] == "-inf"


# Numeric flags per subcommand; --s-star, --steps and --points are drawn apart.
_FUZZ_FLAGS = {
    "stefan": ("--S", "--h0", "--h1", "--tol"),
    "spread": ("--H", "--L", "--h0", "--h1", "--tol"),
    "table stefan": ("--tol",),
    "table spread": ("--tol",),
    "profile": (),  # plus the drawn --problem's own flags
    "reconstruct": ("--t",),
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
    flags = _FUZZ_FLAGS[command]
    if command in ("profile", "reconstruct"):
        problem = draw(st.sampled_from(["stefan", "spread"]))
        argv.append(f"--problem={problem}")
        flags = _FUZZ_FLAGS[problem] + flags
    for flag in flags:
        if flag in _REQUIRED or draw(st.booleans()):
            argv.append(f"{flag}={draw(_FLOATS)!r}")  # "=": "-1e-300" is not an option
    if command != "check-invariance":
        argv.append(f"--max-iter={draw(st.sampled_from([0, 1, 3]))}")
    if command in ("stefan", "spread", "profile", "reconstruct") and draw(st.booleans()):
        argv.append(f"--s-star={draw(_FLOATS)!r}")
    if command in ("stefan", "spread") and draw(st.booleans()):
        # never a large count in range: 10^7 steps cost about 10 s per Gamma evaluation
        argv.append(f"--steps={draw(st.sampled_from([-1, 0, 1, 10, 10 ** 7 + 1]))}")
    if command in ("profile", "reconstruct"):
        argv.append(f"--points={draw(st.sampled_from([-1, 0, 1, 5]))}")
    if command in ("stefan", "spread", "check-invariance"):
        argv.append(f"--format={draw(st.sampled_from(['table', 'csv', 'json']))}")
    if command in ("stefan", "spread") and draw(st.booleans()):
        argv.append("--trace")
    return argv


@example(argv=["stefan", "--S=1.0", "--h0=1e-290", "--h1=1e-280", "--max-iter=1"])
@example(argv=["stefan", "--S=1e-300", "--max-iter=1", "--steps=10"])
@example(argv=["profile", "--problem=spread", "--S=5.0"])
@example(argv=["stefan", "--S=1e-300", "--max-iter=1", "--steps=10", "--format=json"])
@example(argv=["spread", "--s-star=1e-100"])  # V - h^(1/2) eta cubed underflows to 0
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.sampled_from(list(_FUZZ_FLAGS)).flatmap(_fuzz_argv))
def test_every_float_input_exits_with_a_known_code(argv):
    # in-process, so an escaping exception fails the test instead of exiting 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if "--format=json" in argv and out.getvalue():
        strict_loads(out.getvalue())


def test_cli_import_loads_no_json_and_one_dataclass():
    # json is loaded only to write JSON output. The record types are namedtuples,
    # built without the code generation of dataclasses; ReducedFreeBvp stays a
    # dataclass while the benchmark's tracer swaps its RHS with dataclasses.replace,
    # until ROADMAP item 5 moves the tracer off it. No RK4 loop is compiled, and no array
    # of step ends is built, before the first integration asks for one
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = ("import dataclasses, sys, itmfree, itmfree.cli; assert 'json' not in sys.modules; "
            "assert itmfree.ivp._loop.cache_info().currsize == 0, 'a loop compiled at import'; "
            "assert itmfree.ivp._abscissae.cache_info().currsize == 0, 'step ends at import'; "
            "print(*[n for n in itmfree.__all__ if dataclasses.is_dataclass(getattr(itmfree, n))])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ReducedFreeBvp"]


def test_plain_interpreter_import_loads_no_typing_json_or_numpy():
    # -S skips site, whose .pth files may import typing before any program does. The package
    # annotates with strings and collections.abc, so it needs no typing at run time.
    # site-packages stays on the path, so that numpy could be imported
    site_packages = [sysconfig.get_paths()[key] for key in ("purelib", "platlib")]
    paths = [str(Path(cli.__file__).resolve().parents[1]), *site_packages]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    code = ("import importlib.util, sys, itmfree.cli; assert importlib.util.find_spec('numpy'); "
            "print(*sorted({'typing', 'json', 'numpy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cli_import_leaves_numpy_unloaded():
    # numpy is a test dependency only; importing it would about triple the CLI's import time
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, itmfree.cli; assert 'numpy' not in sys.modules, 'numpy imported'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
