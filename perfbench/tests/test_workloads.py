"""Tiny-size runs of every workload, the result contract, and the
horizon classifier of rolling-faults."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", seconds,
         "--size", "tiny", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_its_checks(workload, trace):
    proc = bench("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert result["metrics"]["ok_share"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["obs.trace_overhead"]["value"] > 0
        assert "unattributed" in proc.stdout


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_horizon_clock_groups_refine_calls():
    from perfbench.rolling_faults import HorizonClock
    from repro.etc.matrix import ETCMatrix

    def etc(tasks, machines):
        return ETCMatrix(np.ones((len(tasks), len(machines))), tasks=tasks,
                         machines=machines)

    clock = HorizonClock(machines=3)
    full = ["m0", "m1", "m2"]
    # Horizon 1: original mapping, then the refine pass without m1.
    clock(etc(["t0", "t1", "t2"], full), ([0.0, 1.0, 2.0],), {}, 0.0, 1.0)
    clock(etc(["t0", "t2"], ["m0", "m2"]), ([0.0, 2.0],), {}, 1.0, 1.5)
    # Horizon 2: m2 is down; a subset of the old tasks on one machine
    # fewer, but at new ready times, so it is a new horizon.
    clock(etc(["t0"], ["m0", "m1"]), ([4.0, 4.0],), {}, 2.0, 2.25)
    assert clock.calls == 3
    assert clock.latencies_ms(degraded=False) == [1500.0]
    assert clock.latencies_ms(degraded=True) == [250.0]
