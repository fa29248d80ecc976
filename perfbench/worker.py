"""Benchmark worker: one workload, closed loop, one operation at a time.

run.py starts it with the checkout's ``src`` on PYTHONPATH. It prints
``READY`` once set up (interpreter, ``import itmfree`` and the parameter
set). Unless ``--setup-only`` is given it then runs whole passes over the
workload's operations, each pass in an order shuffled from ``--seed``, until
the next pass would end after ``--seconds``. Every result is checked against
an oracle outside the timed interval. The last stdout line is
``RESULT <json>``; with ``--trace 1`` the result also holds the per-layer
metrics and the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import itmfree
from itmfree import itm, problems, similarity
from itmfree.errors import ItmFreeError
from itmfree.reference import exact_spreading, neumann_eta_w

from speed import ScaledClock
from tracer import Tracer, layer_counts, layer_times, outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TAIL = 80  # tail percentile over the operations: stefan_sweep has 50 converged, so ten lie beyond it

# The public functions the library workloads call; a traced run wraps them here.
api = SimpleNamespace(
    make_stefan=problems.make_stefan,
    make_spreading=problems.make_spreading,
    secant_solve=itm.secant_solve,
    original_profile=itm.original_profile,
    reconstruct_physical=similarity.reconstruct_physical,
)


def _solve(problem, scaling, config):
    try:
        result = api.secant_solve(problem, scaling, config)
    except ItmFreeError as exc:
        return outcome(exc=exc), None
    return outcome(result), result


class StefanOp:
    """secant_solve on the Stefan problem at S = 10^(k/10)."""

    spawns = False

    def __init__(self, k: int):
        self.S = 10.0 ** (k / 10)
        self.h0, self.h1 = problems.stefan_default_guesses(self.S)
        self.label = f"stefan S={self.S:.6g}"

    def run(self):
        problem, scaling = api.make_stefan(problems.StefanParams(S=self.S))
        config = itm.ItmConfig(s_star=0.5, step=1e-3, h0=self.h0, h1=self.h1, tol=1e-6)
        return _solve(problem, scaling, config)

    def check(self, payload):
        kind, result = payload
        if kind != "converged":
            return False, []
        return True, [("|s - neumann_eta_w(S)|", abs(result.s - neumann_eta_w(self.S)), 1e-6)]


class SpreadOp:
    """secant_solve on the spreading problem, then a 1,000-step profile and its
    physical image at t = 4."""

    spawns = False

    def __init__(self, H: float, L: float):
        self.H, self.L = H, L
        self.label = f"spread H={H} L={L}"

    def run(self):
        problem, scaling = api.make_spreading(problems.SpreadingParams(H=self.H, L=self.L))
        config = itm.ItmConfig(s_star=0.5, step=5e-4, h0=0.5, h1=0.1, tol=1e-6)
        kind, result = _solve(problem, scaling, config)
        if kind != "converged":
            return kind, result, None
        profile = api.original_profile(problem, result.s, 1000)
        physical = api.reconstruct_physical(profile, problems.spreading_exponents(), result.s, 4.0)
        return kind, result, (profile, physical)

    def check(self, payload):
        kind, result, extra = payload
        if kind != "converged":
            return False, []
        profile, physical = extra
        errors = [("|U'(0)|", abs(float(profile.du[0])), 1e-5),
                  ("profile rows != 1001", len(profile) != 1001, 0),
                  ("physical rows != 1001", len(physical.x) != 1001, 0)]
        if (self.H, self.L) == (0.5, -0.5):
            errors += [("|s - 1|", abs(result.s - 1.0), 1e-6),
                       ("|U0 - exact U(0)|", abs(result.w0 - exact_spreading(0.0).w), 1e-6)]
        return True, errors


def _rows(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines()[1:] if not line.startswith(("#", "x,"))]


def _check_stefan_json(stdout):
    res = json.loads(stdout)["result"]
    return [("status != converged", res["status"] != "converged", 0),
            ("|eta_w - neumann_eta_w(1)|", abs(res["eta_w"] - neumann_eta_w(1.0)), 1e-6)]


def _check_spread_json(stdout):
    res = json.loads(stdout)["result"]
    return [("status != converged", res["status"] != "converged", 0),
            ("|eta_w - 1|", abs(res["eta_w"] - 1.0), 1e-6),
            ("|U0 - exact U(0)|", abs(res["U0"] - exact_spreading(0.0).w), 1e-6)]


def _check_profile(stdout):
    rows = _rows(stdout)
    return [("data rows != 1001", len(rows) != 1001, 0),
            ("|U'(0)|", abs(float(rows[0].split(",")[2])), 1e-5)]


def _check_reconstruct(stdout):
    return [("data rows != 1001", len(_rows(stdout)) != 1001, 0)]


CLI_COMMANDS = (
    (("stefan", "--S", "1", "--format", "json"), _check_stefan_json),
    (("spread", "--format", "json"), _check_spread_json),
    (("profile", "--problem", "spread", "--points", "1000"), _check_profile),
    (("reconstruct", "--t", "4", "--S", "1", "--points", "1000"), _check_reconstruct),
)


class CliOp:
    """One fresh ``python -m itmfree.cli`` process; traced, the same command
    under ``cli_driver.py`` with ``-X importtime``."""

    spawns = True

    def __init__(self, args, checker, traced: bool):
        self.args, self.checker = args, checker
        self.label = "itmfree " + " ".join(args)
        entry = ["-X", "importtime", str(HERE / "cli_driver.py")] if traced else ["-m", "itmfree.cli"]
        self.argv = [sys.executable, *entry, *args]

    def run(self):
        return subprocess.run(self.argv, capture_output=True, text=True, cwd=ROOT, timeout=60)

    def check(self, proc):
        errors = [("exit code", proc.returncode, 0)]
        if proc.returncode == 0:
            try:
                errors += self.checker(proc.stdout)
            except (ValueError, KeyError, IndexError) as exc:
                errors.append((f"unreadable output ({exc!r})", 1, 0))
        return True, errors


def build_ops(workload: str, smoke: bool, traced: bool):
    if workload == "stefan_sweep":
        return [StefanOp(k) for k in range(-30, 31, 20 if smoke else 1)]
    if workload == "spread_grid":
        grid = [SpreadOp(H, L) for H in (0.1, 0.25, 0.5, 1.0, 2.0)
                for L in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)]
        return grid[::7] if smoke else grid
    if workload == "cli_oneshot":
        return [CliOp(args, checker, traced) for args, checker in CLI_COMMANDS]
    raise SystemExit(f"unknown workload {workload!r}")


def _spawn_ms(argv) -> float:
    t0 = perf_counter()
    subprocess.run(argv, check=True, cwd=ROOT, timeout=60)
    return (perf_counter() - t0) * 1e3


def _numpy_import_ms(stderr: str) -> float:
    """Cumulative import time of numpy from ``-X importtime`` (0 if not imported)."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e3
    return 0.0


def _merge_child(tracer: Tracer, proc, op_span: int, cli: dict) -> None:
    """Fold a traced CLI child's spans and totals into this process's trace."""
    line = next(ln for ln in reversed(proc.stderr.splitlines()) if ln.startswith("PERFBENCH_TRACE "))
    record = json.loads(line.split(" ", 1)[1])
    offset = len(tracer.spans)
    for name, start, end, parent, _ in record["spans"]:
        tracer.spans.append([name, start, end, op_span if parent < 0 else parent + offset, tracer.op])
    totals = record["totals"]
    tracer.totals.update(totals)
    cli["cli.import_ms"].append(record["import_s"] * 1e3)
    cli["cli.import_numpy_ms"].append(_numpy_import_ms(proc.stderr))
    for metric, key in (("cli.main_ms", "cli.main.s"), ("cli.solve_ms", "itm.secant_solve.s"),
                        ("cli.reference_ms", "cli.reference.s"), ("cli.self_ms", "cli.main.self_s")):
        cli[metric].append(totals.get(key, 0.0) * 1e3)


def run_pass(order, clock: ScaledClock, tracer: Tracer | None, cli: dict, next_id: int) -> dict:
    result = {"ms": [], "ok": set(), "unsolved": 0, "misses": [], "max_err": 0.0}
    for op in order:
        run, check = op.run, op.check
        if tracer is not None:
            tracer.op = next_id
            next_id += 1
            if op.spawns:
                cli["cli.interp_ms"].append(_spawn_ms([sys.executable, "-c", "pass"]))
            op_span = len(tracer.spans)
            run, check = tracer.span("op", run), tracer.span("reference.oracle", check)
        payload, wall, scaled = clock.time(run)
        if tracer is not None and op.spawns:
            _merge_child(tracer, payload, op_span, cli)
        solved, errors = check(payload)
        result["ms"].append((op.label, scaled * 1e3, wall * 1e3))
        # exact checks (tolerance 0) are not errors of the solution
        result["max_err"] = max([result["max_err"]] + [float(e) for _, e, tol in errors if tol > 0])
        missed = [f"{what} = {err:.3g} > {tol:g}" for what, err, tol in errors if err > tol]
        if missed:
            result["misses"].append(f"{op.label}: " + "; ".join(missed))
        elif solved:
            result["ok"].add(op.label)
        else:
            result["unsolved"] += 1
    return result


def _layers(passes, cli: dict) -> dict:
    """Per-layer metrics of one pass: counts, which must repeat exactly in
    every pass, and the median over passes of everything timed."""
    counts = [p["counts"] for p in passes]
    for c in counts:
        if c != counts[0]:
            raise SystemExit(f"per-layer counts differ between passes:\n{counts[0]}\n{c}")
        if c["problems.rhs_calls"] != 4 * c["ivp.steps"]:
            raise SystemExit(f"problems.rhs_calls {c['problems.rhs_calls']} != 4 x ivp.steps {c['ivp.steps']}")
    layers = dict(counts[0])
    for name in passes[0]["times"]:
        layers[name] = statistics.median(p["times"][name] for p in passes)
    layers["reference.max_abs_err"] = max(p["max_err"] for p in passes)
    for name in ("cli.interp_ms", "cli.import_ms", "cli.import_numpy_ms", "cli.main_ms",
                 "cli.solve_ms", "cli.reference_ms", "cli.self_ms"):
        layers[name] = statistics.median(cli[name]) if cli[name] else 0.0
    return layers


def hd_quantile(values, p: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a beta(p(n+1), (1-p)(n+1)) density. It moves less
    with noise than interpolating between the two nearest order statistics
    when neighbouring values are far apart."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_density = [[(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                    for x in ((i + (k + 0.5) / steps) / n for k in range(steps))]
                   for i in range(n)]
    top = max(map(max, log_density))
    weights = [sum(math.exp(v - top) for v in row) for row in log_density]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _summary(ops, passes) -> dict:
    # Each operation's median over the passes first, then sums and percentiles
    # over the operations: the operations differ in cost by steps, and a
    # pooled percentile that falls between two such steps jumps with the noise.
    scaled_ms, wall_ms = defaultdict(list), defaultdict(list)
    for p in passes:
        for label, scaled, wall in p["ms"]:
            scaled_ms[label].append(scaled)
            wall_ms[label].append(wall)
    always_ok = set.intersection(*(p["ok"] for p in passes))

    def typical(times):
        ms = {label: statistics.median(v) for label, v in times.items()}
        solved = [ms[label] for label in always_ok]
        if len(solved) < 2:
            raise SystemExit("fewer than two operations produced a checked solution")
        return {"solution_ms.p50": hd_quantile(solved, 0.5),
                f"solution_ms.p{TAIL}": hd_quantile(solved, TAIL / 100),
                "sweep_s": sum(ms.values()) / 1e3}

    attempted = len(ops) * len(passes)
    samples = sum(len(p["ok"]) for p in passes)
    misses = [m for p in passes for m in p["misses"]]
    return {
        "attempted": attempted,
        "failed": len(misses),
        "unsolved": sum(p["unsolved"] for p in passes),
        "passes": len(passes),
        "samples": samples,
        "misses": sorted(set(misses)),
        "metrics": {**typical(scaled_ms), "solved_ratio": samples / attempted},
        "wall": typical(wall_ms),
        "env": {"python": sys.version.split()[0], "numpy": metadata.version("numpy")},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if Path(itmfree.__file__).resolve().parent != ROOT / "src" / "itmfree":
        raise SystemExit(f"itmfree imported from {itmfree.__file__}, not from this checkout")
    ops = build_ops(args.workload, args.smoke, bool(args.trace))
    print("READY", flush=True)
    if args.setup_only:
        sys.stdin.read()  # stay idle until run.py has timed its kernel
        return

    ops[0].run()  # warm-up: fill caches before timing; not counted
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(api)
    cli = defaultdict(list)
    rng = random.Random(args.seed)
    min_passes = 2 if args.trace else 1  # a traced run compares the counts of two passes
    passes = []
    clock = ScaledClock()
    start = perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        p = run_pass(order, clock, tracer, cli, len(passes) * len(ops))
        if tracer is not None:
            p["counts"], p["times"] = layer_counts(tracer.totals), layer_times(tracer.totals)
            tracer.totals.clear()
        passes.append(p)
        spent = perf_counter() - start
        if len(passes) >= min_passes and spent * (len(passes) + 1) / len(passes) > args.seconds:
            break

    out = _summary(ops, passes)
    if tracer is not None:
        out["layers"] = _layers(passes, cli)
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        with open(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    print("RESULT " + json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
