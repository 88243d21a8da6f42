"""Ledger differential battery for the result-producing CLI commands.

Each command runs once at a tiny size with ``--append-ledger``; the test
pins the ledger record's ``command``, ``seed``, ``config`` and
``config_hash`` plus the sorted key sets of ``metrics``, ``counters``
and ``extra``, and the number of records in every ``--trace-out`` JSONL
export.  Any refactor of the CLI's run bookkeeping must leave all of
them unchanged; a deliberate change to a command's ledger config shows
up here as a new ``config_hash``.
"""

import pytest

from repro.cli import main
from repro.obs.ledger import RunLedger

#: argv per command; ``{d}`` is replaced by a per-test scratch directory.
#: Every run is serial and cache-free, so records are deterministic.
COMMANDS = {
    "study": ["study", "--heuristics", "min-min,mct", "--tasks", "6",
              "--machines", "3", "--instances", "2",
              "--ties", "deterministic,random"],
    "study-faults": ["study", "--faults", "--heuristics", "mct",
                     "--tasks", "6", "--machines", "3", "--instances", "2",
                     "--failure-rates", "1e-3"],
    "compare": ["compare", "--heuristics", "min-min,mct", "--tasks", "6",
                "--machines", "3", "--instances", "2"],
    "simulate-faults": ["simulate", "--faults", "--tasks", "10",
                        "--machines", "3", "--failures", "2",
                        "--slowdowns", "1"],
    "export": ["export", "--heuristics", "min-min,mct", "--tasks", "6",
               "--machines", "3", "--instances", "2", "--workers", "1",
               "-o", "{d}/records.csv"],
    "run-grid": ["run-grid", "--heuristics", "min-min,mct", "--tasks", "6",
                 "--machines", "3", "--instances", "2", "--workers", "1",
                 "--no-cache", "--trace-out", "{d}/trace.jsonl"],
    "run-rolling": ["run-rolling", "--tasks", "120", "--machines", "3",
                    "--chunk-tasks", "16", "--batch-target", "8",
                    "--faults", "--trace-out", "{d}/trace.jsonl",
                    "--timeseries", "{d}/ts.jsonl"],
    "report": ["report", "--quick"],
}


def summarize(name, tmp_path):
    """Run one command and reduce its ledger record to the pinned form."""
    ledger = tmp_path / "ledger.jsonl"
    argv = [arg.replace("{d}", str(tmp_path)) for arg in COMMANDS[name]]
    assert main([*argv, "--append-ledger", "--ledger-path", str(ledger)]) == 0
    (record,) = RunLedger(ledger).read()
    summary = {key: record[key] for key in ("command", "seed", "config",
                                            "config_hash")}
    for key in ("metrics", "counters", "extra"):
        summary[key] = sorted(record[key])
    trace = tmp_path / "trace.jsonl"
    if trace.exists():
        summary["trace_records"] = len(trace.read_text().splitlines())
    return summary


#: Counters every plain experiment grid (study, export, run-grid) emits.
GRID_COUNTERS = [
    "decisions",
    "events.experiment.cell",
    "events.experiment.run",
    "events.heuristic.map",
    "events.iterative.freeze",
    "events.iterative.run",
    "events.mct.decision",
    "events.min-min.decision",
    "experiment.runs",
    "iterations",
]

EXPECTED = {
    "compare": {
        "command": "compare",
        "seed": 0,
        "config": {
            "consistency": "inconsistent",
            "heterogeneity": "hihi",
            "heuristics": "min-min,mct",
            "instances": 2,
            "machines": 3,
            "tasks": 6,
        },
        "config_hash": (
            "5a2800bb85c9923b39ea62103b6da4f5ea2e2b5231cf6687cf928da62132b8b9"
        ),
        "metrics": [
            "makespan_mean_overall",
            "mct.hihi/inconsistent.makespan_mean",
            "min-min.hihi/inconsistent.makespan_mean",
        ],
        "counters": [],
        "extra": [],
    },
    "export": {
        "command": "export",
        "seed": 0,
        "config": {
            "backend": "incremental",
            "consistency": "inconsistent",
            "heterogeneity": "hihi",
            "heuristics": "min-min,mct",
            "instances": 2,
            "machines": 3,
            "seeded": False,
            "tasks": 6,
            "ties": "deterministic",
            "workers": 1,
        },
        "config_hash": (
            "e2f731bd65d13e553bbdec6d09457a637e0ae0d46179bd2d57b752b95beaf79f"
        ),
        "metrics": [
            "final_makespan_mean",
            "makespan_increase_rate",
            "non_makespan_improvement_mean",
            "original_makespan_mean",
            "runs",
        ],
        "counters": GRID_COUNTERS,
        "extra": [],
    },
    "report": {
        "command": "report",
        "seed": 0,
        "config": {
            "output": None,
            "quick": True,
        },
        "config_hash": (
            "7cb6a7cee9487a50011f16946a356ad1deffe6d4eedab61883a4df2e4a92eeb7"
        ),
        "metrics": [
            "report_chars",
        ],
        "counters": [],
        "extra": [],
    },
    "run-grid": {
        "command": "run-grid",
        "seed": 0,
        "config": {
            "backend": "incremental",
            "cache_dir": None,
            "consistencies": "inconsistent",
            "heterogeneities": "hihi,lolo",
            "heuristics": "min-min,mct",
            "instances": 2,
            "machines": 3,
            "resume": False,
            "seeded": False,
            "store_dir": None,
            "stream_chunk": None,
            "tasks": 6,
            "ties": "deterministic",
            "workers": 1,
        },
        "config_hash": (
            "f9f5a15226eae32391b90055bc455fc6da427ae6b3c7f7a5905a227cb3dbf9d8"
        ),
        "metrics": [
            "cells_cached",
            "cells_computed",
            "cells_quarantined",
            "cells_retried",
            "cells_total",
            "final_makespan_mean",
            "makespan_increase_rate",
            "non_makespan_improvement_mean",
            "original_makespan_mean",
            "runs",
            "tasks_scheduled",
            "tasks_scheduled_per_s",
        ],
        "counters": GRID_COUNTERS,
        "extra": [
            "histograms",
        ],
        "trace_records": 230,
    },
    "run-rolling": {
        "command": "run-rolling",
        "seed": 0,
        "config": {
            "arrival": "poisson",
            "chunk_tasks": 16,
            "consistency": "inconsistent",
            "failures": 2.0,
            "faults": True,
            "heterogeneity": "hihi",
            "heuristic": "min-min",
            "horizon": 1237384.9520463909,
            "machines": 3,
            "rate": None,
            "recovery": "requeue",
            "refine_iterations": 2,
            "retry_budget": 8,
            "store_dir": None,
            "stream": 32,
            "tasks": 120,
            "utilization": 0.7,
        },
        "config_hash": (
            "d191dd946064856402dc012ded7e1ecd027f7a99047aac05d57ce386e305c987"
        ),
        "metrics": [
            "batch_max",
            "batch_mean",
            "failures",
            "horizons",
            "makespan",
            "max_queue_wait",
            "mean_flow",
            "mean_queue_wait",
            "peak_backlog",
            "retries",
            "tasks_completed",
            "tasks_dropped",
            "tasks_scheduled",
            "tasks_scheduled_per_s",
            "tasks_total",
        ],
        "counters": [
            "decisions",
            "events.heuristic.map",
            "events.iterative.exhausted",
            "events.iterative.freeze",
            "events.iterative.run",
            "events.min-min.decision",
            "events.sim.dispatch",
            "events.sim.fault.fail",
            "events.sim.fault.recover",
            "events.sim.fault.retry",
            "iterations",
            "sim.events",
            "sim.events.machine-fail",
            "sim.events.machine-recover",
            "sim.events.rolling-horizon",
            "sim.events.task-arrival",
            "sim.events.task-finish",
            "sim.events.task-retry",
            "sim.failures",
            "sim.recoveries",
            "sim.requeues",
            "sim.retries",
        ],
        "extra": [
            "plan_signature",
            "timeseries",
        ],
        "trace_records": 716,
    },
    "simulate-faults": {
        "command": "simulate-faults",
        "seed": 0,
        "config": {
            "consistency": "inconsistent",
            "downtime_frac": 0.05,
            "failures": 2.0,
            "heterogeneity": "hihi",
            "heuristic": "min-min",
            "machines": 3,
            "recovery": "requeue",
            "retry_budget": 8,
            "slowdowns": 1.0,
            "tasks": 10,
        },
        "config_hash": (
            "699652a0a7b36efdcc6a18de1f610602965cc014000e09d6beb395c4eea885a5"
        ),
        "metrics": [
            "dropped",
            "failures",
            "fault_free_makespan",
            "faulty_makespan",
            "makespan_degradation",
            "requeues",
            "retries",
        ],
        "counters": [
            "events.sim.dispatch",
            "events.sim.fault.fail",
            "events.sim.fault.recover",
            "events.sim.fault.retry",
            "events.sim.fault.slow",
            "sim.events",
            "sim.events.machine-fail",
            "sim.events.machine-ready",
            "sim.events.machine-recover",
            "sim.events.machine-restore",
            "sim.events.machine-slow",
            "sim.events.task-finish",
            "sim.events.task-retry",
            "sim.failures",
            "sim.recoveries",
            "sim.requeues",
            "sim.retries",
            "sim.slowdowns",
        ],
        "extra": [
            "plan_signature",
        ],
    },
    "study": {
        "command": "study",
        "seed": 0,
        "config": {
            "backend": "incremental",
            "consistency": "inconsistent",
            "heterogeneity": "hihi",
            "heuristics": "min-min,mct",
            "instances": 2,
            "machines": 3,
            "seeded": False,
            "tasks": 6,
            "ties": "deterministic,random",
        },
        "config_hash": (
            "b1e7b0bd36dbfe45241f2eb9647eb1c119072c52fb1ac071a65d77cc27d3c1af"
        ),
        "metrics": [
            "makespan_increase_rate_mean",
            "mct.deterministic.machine_improved_rate",
            "mct.deterministic.makespan_increase_rate",
            "mct.deterministic.mapping_change_rate",
            "mct.deterministic.non_makespan_improvement_mean",
            "mct.random.machine_improved_rate",
            "mct.random.makespan_increase_rate",
            "mct.random.mapping_change_rate",
            "mct.random.non_makespan_improvement_mean",
            "min-min.deterministic.machine_improved_rate",
            "min-min.deterministic.makespan_increase_rate",
            "min-min.deterministic.mapping_change_rate",
            "min-min.deterministic.non_makespan_improvement_mean",
            "min-min.random.machine_improved_rate",
            "min-min.random.makespan_increase_rate",
            "min-min.random.mapping_change_rate",
            "min-min.random.non_makespan_improvement_mean",
            "non_makespan_improvement_mean",
        ],
        "counters": GRID_COUNTERS,
        "extra": [],
    },
    "study-faults": {
        "command": "study-faults",
        "seed": 0,
        "config": {
            "consistency": "inconsistent",
            "downtime_frac": 0.05,
            "failure_rates": "1e-3",
            "heterogeneity": "hihi",
            "heuristics": "mct",
            "instances": 2,
            "machines": 3,
            "recovery": "requeue",
            "retry_budget": 8,
            "tasks": 6,
        },
        "config_hash": (
            "1ea4e5359cf2e5f6d8323478797fd97420d24f30e34f569db1da787b76bda8d5"
        ),
        "metrics": [
            "mct.iterative.rate_0.001.dropped",
            "mct.iterative.rate_0.001.failures",
            "mct.iterative.rate_0.001.makespan_degradation",
            "mct.iterative.rate_0.001.non_makespan_degradation",
            "mct.original.rate_0.001.dropped",
            "mct.original.rate_0.001.failures",
            "mct.original.rate_0.001.makespan_degradation",
            "mct.original.rate_0.001.non_makespan_degradation",
        ],
        "counters": [
            "decisions",
            "events.heuristic.map",
            "events.iterative.freeze",
            "events.iterative.run",
            "events.mct.decision",
            "events.sim.dispatch",
            "events.sim.fault.fail",
            "events.sim.fault.recover",
            "events.sim.fault.retry",
            "iterations",
            "sim.events",
            "sim.events.machine-fail",
            "sim.events.machine-ready",
            "sim.events.machine-recover",
            "sim.events.task-finish",
            "sim.events.task-retry",
            "sim.failures",
            "sim.recoveries",
            "sim.requeues",
            "sim.retries",
        ],
        "extra": [],
    },
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_ledger_record_is_unchanged(name, tmp_path, capsys):
    summary = summarize(name, tmp_path)
    capsys.readouterr()
    assert summary == EXPECTED[name]
