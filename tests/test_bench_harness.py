"""Tests for the benchmark-regression harness (repro.bench + CLI)."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA,
    WORKLOADS,
    compare_reports,
    format_report,
    load_report,
    run_bench,
    workload_names,
    write_report,
)
from repro.cli import main
from repro.exceptions import ConfigurationError

FAST = ("mct-512x32",)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def smoke_report():
    return run_bench(smoke=True, repeats=1, with_reference=True, only=FAST)


class TestRunBench:
    def test_report_shape(self, smoke_report):
        assert smoke_report["schema"] == SCHEMA
        assert smoke_report["smoke"] is True
        entry = smoke_report["results"]["mct-512x32"]
        assert entry["best_s"] > 0
        assert entry["median_s"] >= entry["best_s"]
        assert len(entry["samples"]) == 1
        assert entry["reference_best_s"] > 0
        assert entry["speedup"] == pytest.approx(
            entry["reference_best_s"] / entry["best_s"]
        )

    def test_no_reference_omits_speedup(self):
        report = run_bench(smoke=True, repeats=1, with_reference=False, only=FAST)
        entry = report["results"]["mct-512x32"]
        assert "speedup" not in entry
        assert "reference_best_s" not in entry

    def test_workload_registry_covers_paper_heuristics(self):
        names = {w.name for w in WORKLOADS}
        for fragment in ("minmin", "mct", "sufferage", "kpb", "iterative"):
            assert any(fragment in n for n in names), fragment

    def test_rejects_unknown_workload(self):
        with pytest.raises(ConfigurationError):
            run_bench(smoke=True, repeats=1, only=("no-such-workload",))

    def test_rejects_bad_repeats(self):
        with pytest.raises(ConfigurationError):
            run_bench(smoke=True, repeats=0, only=FAST)


class TestBaselineRegistry:
    """The checked-in baselines and the workload registry cannot drift."""

    @pytest.mark.parametrize("baseline", ["BENCH_baseline_smoke.json"])
    def test_every_gated_baseline_workload_is_registered(self, baseline):
        results = load_report(ROOT / baseline)["results"]
        gated = {name for name, entry in results.items() if "speedup" in entry}
        assert gated <= set(workload_names())

    def test_every_registered_workload_has_a_smoke_baseline(self):
        covered = set(load_report(ROOT / "BENCH_baseline_smoke.json")["results"])
        assert set(workload_names()) <= covered


class TestReportIO:
    def test_round_trip(self, smoke_report, tmp_path):
        path = tmp_path / "bench.json"
        write_report(smoke_report, path)
        assert load_report(path) == smoke_report
        # Deterministic serialisation: sorted keys, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == smoke_report

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9", "results": {}}))
        with pytest.raises(ConfigurationError):
            load_report(path)

    def test_format_report_mentions_workloads(self, smoke_report):
        text = format_report(smoke_report)
        assert "mct-512x32" in text


class TestCompareReports:
    def test_no_regression_against_self(self, smoke_report):
        assert compare_reports(smoke_report, smoke_report, tolerance=0.5) == []

    def test_detects_slowdown(self, smoke_report):
        slow = copy.deepcopy(smoke_report)
        entry = slow["results"]["mct-512x32"]
        entry["best_s"] = entry["best_s"] * 10.0
        regressions = compare_reports(slow, smoke_report, tolerance=0.5)
        assert len(regressions) == 1
        assert "mct-512x32" in regressions[0]

    def test_missing_workload_is_a_regression(self, smoke_report):
        empty = copy.deepcopy(smoke_report)
        empty["results"] = {}
        regressions = compare_reports(empty, smoke_report, tolerance=0.5)
        assert len(regressions) == 1

    def test_refuses_smoke_mismatch(self, smoke_report):
        full = copy.deepcopy(smoke_report)
        full["smoke"] = False
        with pytest.raises(ConfigurationError):
            compare_reports(full, smoke_report, tolerance=0.5)

    def test_rejects_negative_tolerance(self, smoke_report):
        with pytest.raises(ConfigurationError):
            compare_reports(smoke_report, smoke_report, tolerance=-0.1)


class TestBenchCLI:
    BASE = ["bench", "--smoke", "--repeats", "1", "--no-reference",
            "--workloads", "mct-512x32"]

    def test_writes_report_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(self.BASE + ["-o", str(out)]) == 0
        report = load_report(out)
        assert "mct-512x32" in report["results"]
        assert "mct-512x32" in capsys.readouterr().out

    def test_baseline_pass_and_regression_exit_codes(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(self.BASE + ["-o", str(baseline)]) == 0
        # Comparing a fresh run against itself (50% tolerance) passes.
        assert main(self.BASE + ["--baseline", str(baseline)]) == 0
        assert "no regressions" in capsys.readouterr().out
        # An absurdly fast fabricated baseline must trip the gate.
        report = load_report(baseline)
        report["results"]["mct-512x32"]["best_s"] = 1e-12
        write_report(report, baseline)
        assert main(self.BASE + ["--baseline", str(baseline)]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_list_prints_every_workload(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for workload in WORKLOADS:
            assert workload.name in out
