"""Smoke test of the benchmark harness: a few operations per workload.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from itmfree import ItmResult, ItmStatus
from itmfree.errors import DomainExit, SingularRhs
from tracer import outcome

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = result(bench("--workload", workload, "--seed", "1", "--trace", "0", "--smoke"))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_seeds(workload):
    a, b = (result(bench("--workload", workload, "--seed", seed, "--trace", "1", "--smoke"))
            for seed in ("1", "2"))
    assert {name: m["unit"] for name, m in a["metrics"].items()} == PER_LAYER
    exact = [name for name, unit in PER_LAYER.items() if unit in ("count", "ratio")]
    assert [a["metrics"][n]["value"] for n in exact] == [b["metrics"][n]["value"] for n in exact]
    steps = a["metrics"]["ivp.steps"]["value"]
    assert a["metrics"]["problems.rhs_calls"]["value"] == 4 * steps > 0


def test_raised_and_returned_failures_share_a_bucket():
    returned = ItmResult(status=ItmStatus.SINGULAR_INTEGRATION, omega=float("nan"),
                         h_star=1.0, s=float("nan"), w0=float("nan"), dw0=float("nan"))
    assert outcome(returned) == outcome(exc=SingularRhs(0.1)) == "singular_integration"
    assert outcome(exc=DomainExit("left twice")) == "domain_exit"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
