"""itmfree benchmark: closed-loop workloads driven through the public API and the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stefan_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With one workload it prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) named in BENCHMARK.json; the last stdout
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--workload all`` runs every workload untraced and traced
and prints each metric with its unit, the tracing overhead and the layers.
``--smoke`` runs a few operations per workload, for the benchmark's test.

The package is not installed: workers import it from ``src/`` of the
checkout. Without ``src/itmfree`` the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from speed import ScaledClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stefan_sweep", "spread_grid", "cli_oneshot")
SETUP_SAMPLES = 15
DEADLINE_S = 170  # the whole run, setup included, ends within this


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _setup_time(argv: list[str], clock: ScaledClock) -> tuple[float, float]:
    """Set-up time of one worker, from spawn to READY, scaled and wall.

    The worker then waits on its stdin, so that it is idle while the clock's
    kernel runs after it.
    """
    def start():
        proc = subprocess.Popen(argv + ["--setup-only"], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_env())
        return proc, proc.stdout.readline()

    (proc, line), wall, scaled = clock.time(start)
    proc.stdin.close()
    try:
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    if code != 0 or line.strip() != "READY":
        raise SystemExit(f"worker failed during set-up: {' '.join(argv)}")
    return scaled, wall


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
                 nproc: int) -> dict:
    """Run one workload in a fresh worker; return its result with ``setup_s``."""
    started = perf_counter()
    # compile the package's bytecode once, as an installed package would have it
    subprocess.run([sys.executable, "-c", "import itmfree.cli"], check=True, cwd=ROOT,
                   env=_env(), timeout=60)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(0 if smoke else seconds), "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    clock = ScaledClock()
    setups = [_setup_time(argv, clock) for _ in range(1 if smoke else SETUP_SAMPLES)]
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=_env())
    if proc.stdout.readline().strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker failed during set-up: {' '.join(argv)}")
    watchdog = threading.Timer(max(1.0, DEADLINE_S - (perf_counter() - started)), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
    lines = out.splitlines()
    if code != 0 or not lines or not lines[-1].startswith("RESULT "):
        raise SystemExit(f"worker for {workload} failed with exit code {code}")
    result = json.loads(lines[-1][len("RESULT "):])
    result["metrics"]["setup_s"] = statistics.median(scaled for scaled, _ in setups)
    result["wall"]["setup_s"] = statistics.median(wall for _, wall in setups)
    result["env"].update(nproc=nproc, pinned_to_cpu=min(os.sched_getaffinity(0)), commit=_commit())
    return result


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _select(values: dict, units: dict, what: str) -> dict:
    if set(values) != set(units):
        raise SystemExit(f"{what} metrics do not match BENCHMARK.json: "
                         f"missing {sorted(set(units) - set(values))}, "
                         f"unexpected {sorted(set(values) - set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _stamp(result: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in result["env"].items())


def _print_summary(workload: str, result: dict) -> None:
    failed = result["unsolved"] + result["failed"]
    print(f"{workload}: {result['attempted']} operations in {result['passes']} passes, "
          f"{result['samples']} checked solutions; failed_ratio {failed}/{result['attempted']} "
          f"= {failed / result['attempted']:.4f} ({result['unsolved']} unsolved, "
          f"{result['failed']} oracle misses)")
    for miss in result["misses"]:
        print(f"  oracle miss: {miss}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few operations per workload")
    args = ap.parse_args()
    if not (ROOT / "src" / "itmfree" / "__init__.py").is_file():
        print(f"error: no itmfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    # One CPU for this process and every process it starts, so the speed
    # kernel (speed.py) runs on the core that runs the measured work.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke,
                              nproc)
        print(f"# {args.workload} seed={args.seed} trace={args.trace} {_stamp(result)}")
        _print_summary(args.workload, result)
        if args.trace:
            metrics = _select(result["layers"], spec["per_layer"], "per-layer")
        else:
            metrics = _select(result["metrics"], spec["end_to_end"], "end-to-end")
        for name, m in metrics.items():
            wall = result["wall"].get(name) if not args.trace else None
            print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}"
                  + (f"   (wall {wall:.6g})" if wall is not None else ""))
        print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0

    report = {}
    for workload in WORKLOADS:
        plain = run_workload(workload, args.seed, args.seconds, 0, args.smoke, nproc)
        traced = run_workload(workload, args.seed, args.seconds, 1, args.smoke, nproc)
        if not report:
            print(f"# seed={args.seed} {_stamp(plain)}")
        _print_summary(workload, plain)
        print(f"  {'end-to-end metric':<32} {'untraced':>12} {'traced':>12} {'overhead':>12}")
        for name, unit in spec["end_to_end"].items():
            a, b = plain["metrics"][name], traced["metrics"][name]
            print(f"  {name:<32} {a:>12.6g} {b:>12.6g} {b - a:>+12.4g} {unit}")
        layers = _select(traced["layers"], spec["per_layer"], "per-layer")
        for name, m in layers.items():
            print(f"  {name:<32} {m['value']:>12.6g} {m['unit']}")
        report[workload] = {
            "correct": plain["failed"] == 0 and traced["failed"] == 0,
            "failed_ratio": (plain["unsolved"] + plain["failed"]) / plain["attempted"],
            "end_to_end": _select(plain["metrics"], spec["end_to_end"], "end-to-end"),
            "tracing_overhead": {n: traced["metrics"][n] - plain["metrics"][n]
                                 for n in spec["end_to_end"]},
            "per_layer": layers,
            "env": plain["env"],
        }
    print(json.dumps(report))
    return 0 if all(r["correct"] for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
