"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.etc.io import load_csv, load_json, save_csv
from repro.etc.witness import minmin_example_etc


@pytest.fixture
def etc_file(tmp_path):
    path = tmp_path / "suite.csv"
    save_csv(minmin_example_etc(), path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_heuristic(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["map", "--etc", "x.csv",
                                       "--heuristic", "quantum"])

    def test_rejects_unknown_heterogeneity(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--tasks", "3",
                                       "--machines", "2",
                                       "--heterogeneity", "wild"])


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "etc.csv"
        code = main(["generate", "--tasks", "6", "--machines", "3",
                     "--seed", "1", "-o", str(out)])
        assert code == 0
        etc = load_csv(out)
        assert etc.shape == (6, 3)

    def test_writes_json(self, tmp_path):
        out = tmp_path / "etc.json"
        assert main(["generate", "--tasks", "4", "--machines", "2",
                     "-o", str(out)]) == 0
        assert load_json(out).shape == (4, 2)

    def test_stdout_when_no_output(self, capsys):
        assert main(["generate", "--tasks", "2", "--machines", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("task,")

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--tasks", "5", "--machines", "3", "--seed", "9",
              "-o", str(a)])
        main(["generate", "--tasks", "5", "--machines", "3", "--seed", "9",
              "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_cvb_method(self, tmp_path):
        out = tmp_path / "etc.csv"
        assert main(["generate", "--tasks", "4", "--machines", "2",
                     "--method", "cvb", "-o", str(out)]) == 0


class TestMap:
    def test_prints_allocation_and_finish(self, etc_file, capsys):
        assert main(["map", "--etc", etc_file, "--heuristic", "min-min"]) == 0
        out = capsys.readouterr().out
        assert "min-min mapping" in out
        assert "<- makespan" in out

    def test_gantt_flag(self, etc_file, capsys):
        main(["map", "--etc", etc_file, "--gantt"])
        out = capsys.readouterr().out
        assert "|[" in out or "|" in out

    def test_show_etc_flag(self, etc_file, capsys):
        main(["map", "--etc", etc_file, "--show-etc"])
        assert "ETC matrix" in capsys.readouterr().out

    def test_missing_file_is_clean_error(self, capsys):
        assert main(["map", "--etc", "/nope/missing.csv"]) == 1
        assert "error:" in capsys.readouterr().err


class TestIterate:
    def test_overview_and_comparison(self, etc_file, capsys):
        assert main(["iterate", "--etc", etc_file,
                     "--heuristic", "min-min"]) == 0
        out = capsys.readouterr().out
        assert "frozen" in out
        assert "original vs iterative" in out

    def test_warns_on_increase(self, tmp_path, capsys):
        from repro.etc.witness import sufferage_example_etc

        path = tmp_path / "suff.csv"
        save_csv(sufferage_example_etc(), path)
        assert main(["iterate", "--etc", str(path),
                     "--heuristic", "sufferage"]) == 0
        assert "INCREASED" in capsys.readouterr().out

    def test_seeded_flag_suppresses_increase(self, tmp_path, capsys):
        from repro.etc.witness import sufferage_example_etc

        path = tmp_path / "suff.csv"
        save_csv(sufferage_example_etc(), path)
        assert main(["iterate", "--etc", str(path),
                     "--heuristic", "sufferage", "--seeded"]) == 0
        assert "WARNING" not in capsys.readouterr().out


class TestStudyCompareSimulate:
    def test_study_small(self, capsys):
        assert main(["study", "--heuristics", "mct,sufferage",
                     "--tasks", "10", "--machines", "3",
                     "--instances", "3"]) == 0
        out = capsys.readouterr().out
        assert "sufferage" in out and "chg%" in out

    def test_compare_small(self, capsys):
        assert main(["compare", "--heuristics", "min-min,olb",
                     "--tasks", "10", "--machines", "3",
                     "--instances", "3"]) == 0
        out = capsys.readouterr().out
        assert "ETC class" in out

    def test_simulate_immediate(self, capsys):
        assert main(["simulate", "--tasks", "20", "--machines", "3",
                     "--policy", "mct", "--rate", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "utilisation" in out

    def test_simulate_batch(self, capsys):
        assert main(["simulate", "--tasks", "15", "--machines", "3",
                     "--policy", "batch-min-min", "--rate", "0.001",
                     "--batch-interval", "100"]) == 0
        assert "tasks executed  : 15" in capsys.readouterr().out

    def test_simulate_unknown_policy(self, capsys):
        assert main(["simulate", "--policy", "wishful"]) == 2


class TestFaultCommands:
    FAULT_ARGS = ["simulate", "--faults", "--tasks", "12", "--machines", "3",
                  "--failures", "2", "--seed", "5"]

    def test_simulate_faults_recovers(self, capsys):
        assert main(self.FAULT_ARGS) == 0
        out = capsys.readouterr().out
        assert "plan signature" in out
        assert "tasks completed     : 12/12" in out

    def test_simulate_faults_remap_policy(self, capsys):
        assert main(self.FAULT_ARGS + ["--recovery", "remap"]) == 0
        assert "recovery policy     : remap" in capsys.readouterr().out

    def test_simulate_faults_ledger_records_plan_signature(
        self, tmp_path, capsys
    ):
        ledger = tmp_path / "ledger.jsonl"
        args = self.FAULT_ARGS + ["--append-ledger", "--ledger", str(ledger)]
        assert main(args) == 0
        assert main(args) == 0
        from repro.obs.ledger import RunLedger

        first, second = RunLedger(ledger).read()
        assert first["command"] == "simulate-faults"
        assert first["extra"]["plan_signature"] == (
            second["extra"]["plan_signature"]
        )
        assert first["metrics"] == second["metrics"]
        assert first["counters"]["sim.failures"] > 0

    def test_study_faults_reports_both_mappings(self, capsys):
        assert main(["study", "--faults", "--heuristics", "min-min",
                     "--tasks", "10", "--machines", "3", "--instances", "2",
                     "--failure-rates", "1e-6,5e-6,1e-5"]) == 0
        out = capsys.readouterr().out
        assert out.count("failure rate") == 3
        assert "min-min/original" in out
        assert "min-min/iterative" in out

    def test_study_faults_bad_rates_is_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "--faults", "--failure-rates", "fast"])
        assert excinfo.value.code == 2
        assert "--failure-rates" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--failures", "nan"],
        ["--failures", "inf"],
        ["--slowdown-factor", "nan"],
        ["--downtime-frac", "nan"],
    ], ids=" ".join)
    def test_simulate_faults_non_finite_is_clean_error(self, argv, capsys):
        assert main(["simulate", "--faults", "--tasks", "8", "--machines", "2",
                     *argv]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestPaper:
    def test_replays_all_examples(self, capsys):
        assert main(["paper"]) == 0
        out = capsys.readouterr().out
        assert out.count("MAKESPAN INCREASED") == 3  # SWA, KPB, Sufferage
        assert out.count("mapping unchanged") == 3   # Min-Min, MCT, MET


class TestWitness:
    def test_finds_sufferage_witness(self, capsys):
        assert main(["witness", "--heuristic", "sufferage",
                     "--trials", "3000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "peak" in out

    def test_mct_deterministic_returns_3(self, capsys):
        assert main(["witness", "--heuristic", "mct", "--trials", "300"]) == 3
        assert "no makespan-increase witness" in capsys.readouterr().out

    def test_random_ties_with_grid(self, capsys):
        code = main(["witness", "--heuristic", "mct", "--ties", "random",
                     "--grid", "1,2,3", "--tasks", "5", "--trials", "3000"])
        assert code == 0

    def test_writes_witness_file(self, tmp_path, capsys):
        out = tmp_path / "witness.csv"
        assert main(["witness", "--heuristic", "sufferage",
                     "--trials", "3000", "--seed", "1",
                     "-o", str(out)]) == 0
        from repro.etc.io import load_csv

        assert load_csv(out).num_machines == 3


class TestExport:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        assert main(["export", "--heuristics", "mct",
                     "--tasks", "8", "--machines", "3",
                     "--instances", "2", "-o", str(out)]) == 0
        text = out.read_text()
        assert "original_makespan" in text.splitlines()[0]
        assert len(text.splitlines()) == 3  # header + 2 records

    def test_writes_json(self, tmp_path):
        import json

        out = tmp_path / "records.json"
        assert main(["export", "--heuristics", "mct,sufferage",
                     "--tasks", "8", "--machines", "3",
                     "--instances", "2", "-o", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 4


class TestTrace:
    def test_paper_example_trace(self, capsys):
        assert main(["trace", "--example", "min-min"]) == 0
        out = capsys.readouterr().out
        assert "decision trace" in out
        assert "min-min.decision" in out
        assert "iterative.freeze" in out
        # deterministic ties: no divergence for Min-Min (paper theorem)
        assert "makespans per iteration : 5 -> 4 -> 2" in out
        assert "removal order           : m1 -> m3 -> m2" in out
        assert "decisions" in out  # counters block

    def test_kpb_example_shows_increase(self, capsys):
        assert main(["trace", "--example", "kpb"]) == 0
        out = capsys.readouterr().out
        assert "k-percent-best.decision" in out
        assert "makespan increased      : yes" in out

    def test_etc_file_trace(self, etc_file, capsys):
        assert main(["trace", "--etc", etc_file,
                     "--heuristic", "sufferage"]) == 0
        out = capsys.readouterr().out
        assert "sufferage.decision" in out
        assert "sufferage.pass" in out

    def test_jsonl_export(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--example", "kpb",
                     "--jsonl", str(out)]) == 0
        from repro.obs import read_jsonl

        records = read_jsonl(out)
        kinds = [r["kind"] for r in records if r["type"] == "event"]
        assert "k-percent-best.decision" in kinds
        assert any(r["type"] == "counter" for r in records)

    def test_needs_exactly_one_source(self, etc_file, capsys):
        assert main(["trace"]) == 2
        assert main(["trace", "--example", "mct", "--etc", etc_file]) == 2

    def test_all_examples_run(self, capsys):
        from repro.cli import TRACE_EXAMPLES

        for example in TRACE_EXAMPLES:
            assert main(["trace", "--example", example]) == 0
        out = capsys.readouterr().out
        assert out.count("decision trace") == len(TRACE_EXAMPLES)


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestLedgerEndToEnd:
    def _bench(self, ledger):
        return main(["bench", "--smoke", "--repeats", "1",
                     "--workloads", "minmin-512x32", "--no-reference",
                     "--append-ledger", "--ledger", str(ledger)])

    def test_bench_appends_then_obs_inspects(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert self._bench(ledger) == 0
        assert self._bench(ledger) == 0
        assert "ledger: appended run" in capsys.readouterr().out

        assert main(["obs", "tail", "--ledger", str(ledger)]) == 0
        tail = capsys.readouterr().out
        assert len(tail.splitlines()) == 2
        assert "bench" in tail

        assert main(["obs", "summary", "--ledger", str(ledger)]) == 0
        summary = capsys.readouterr().out
        assert "bench: 2 run(s)" in summary
        assert "bench.minmin-512x32.best_s" in summary

        # huge tolerance: the two runs' wall-clock timings legitimately
        # jitter, and this test is about the plumbing, not the verdict
        assert main(["obs", "diff", "-2", "-1", "--tolerance", "10",
                     "--ledger", str(ledger)]) == 0
        diff = capsys.readouterr().out
        assert "bench.minmin-512x32.best_s" in diff

    def test_study_appends_counters(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main(["study", "--heuristics", "mct", "--tasks", "8",
                     "--machines", "3", "--instances", "2",
                     "--append-ledger", "--ledger", str(ledger)]) == 0
        from repro.obs.ledger import RunLedger

        (record,) = RunLedger(ledger).read()
        assert record["command"] == "study"
        assert record["counters"].get("decisions", 0) > 0
        assert "makespan_increase_rate_mean" in record["metrics"]

    def test_obs_tail_empty_ledger(self, tmp_path, capsys):
        assert main(["obs", "tail", "--ledger",
                     str(tmp_path / "none.jsonl")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_obs_tail_non_object_line_is_a_clean_error(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("[1, 2]\n")
        assert main(["obs", "tail", "--ledger", str(ledger)]) == 1
        assert "ledger.jsonl:1: not a repro-ledger/1 record" in (
            capsys.readouterr().err
        )

    def test_obs_diff_regression_exits_1(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger, build_record

        ledger = tmp_path / "ledger.jsonl"
        store = RunLedger(ledger)
        store.append(build_record(
            "compare", metrics={"makespan_mean_overall": 100.0},
            timestamp="2026-01-01T00:00:00+00:00"))
        store.append(build_record(
            "compare", metrics={"makespan_mean_overall": 150.0},
            timestamp="2026-01-02T00:00:00+00:00"))
        assert main(["obs", "diff", "-2", "-1",
                     "--ledger", str(ledger)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "makespan_mean_overall" in captured.err

    def test_export_progress_renders_to_stderr(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        assert main(["export", "--heuristics", "mct", "--tasks", "8",
                     "--machines", "3", "--instances", "2",
                     "--progress", "-o", str(out)]) == 0
        captured = capsys.readouterr()
        assert "cells" in captured.err
        assert "cells" not in out.read_text()  # progress never hits data


class TestIterateChart:
    def test_chart_flag_renders_trajectory(self, tmp_path, capsys):
        from repro.etc.generation import generate_range_based
        from repro.etc.io import save_csv as _save

        path = tmp_path / "big.csv"
        _save(generate_range_based(12, 4, rng=0), path)
        assert main(["iterate", "--etc", str(path),
                     "--heuristic", "sufferage", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "per-iteration makespan" in out
        assert "*" in out


class TestRunGrid:
    def _argv(self, cache, extra=()):
        return ["run-grid", "--heuristics", "min-min,mct",
                "--tasks", "8", "--machines", "3", "--instances", "2",
                "--heterogeneities", "hihi,lolo",
                "--consistencies", "inconsistent",
                "--cache-dir", str(cache), *extra]

    def test_compute_then_resume_hits_cache(self, tmp_path, capsys):
        cache = tmp_path / "cells"
        assert main(self._argv(cache)) == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out
        assert "0 cached, 2 computed" in out

        assert main(self._argv(cache, ["--resume"])) == 0
        out = capsys.readouterr().out
        assert "2 cached, 0 computed" in out

    def test_no_cache_with_resume_is_an_error(self, tmp_path, capsys):
        assert main(self._argv(tmp_path / "c",
                               ["--no-cache", "--resume"])) == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_export_output_round_trips(self, tmp_path, capsys):
        cache = tmp_path / "cells"
        out_csv = tmp_path / "records.csv"
        assert main(self._argv(cache, ["-o", str(out_csv)])) == 0
        text = out_csv.read_text()
        assert "min-min" in text and "mct" in text
        capsys.readouterr()

    def test_append_ledger_records_cells_and_histograms(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        cache = tmp_path / "cells"
        ledger = tmp_path / "ledger.jsonl"
        assert main(self._argv(cache, ["--append-ledger",
                                       "--ledger-path", str(ledger)])) == 0
        capsys.readouterr()
        record = RunLedger(ledger).read()[-1]
        assert record["command"] == "run-grid"
        assert record["metrics"]["cells_computed"] == 2
        assert record["counters"]["runner.cells.computed"] == 2
        assert "runner.cell_wall_s" in record["extra"]["histograms"]

    def test_study_and_export_share_the_cell_cache(self, tmp_path, capsys):
        from repro.analysis.runner import CellCache

        cache = tmp_path / "cells"
        common = ["--heuristics", "mct", "--tasks", "8", "--machines", "3",
                  "--instances", "2", "--cache-dir", str(cache)]
        assert main(["study", *common]) == 0
        populated = CellCache(cache).keys()
        assert len(populated) == 1
        out_csv = tmp_path / "records.csv"
        assert main(["export", *common, "--resume", "-o", str(out_csv)]) == 0
        assert CellCache(cache).keys() == populated  # reused, not re-added
        capsys.readouterr()


class TestRunGridTelemetry:
    def _argv(self, tmp_path, extra=()):
        return ["run-grid", "--heuristics", "min-min,mct",
                "--tasks", "8", "--machines", "3", "--instances", "2",
                "--heterogeneities", "hihi,lolo",
                "--consistencies", "inconsistent",
                "--cache-dir", str(tmp_path / "cells"), *extra]

    def test_trace_out_writes_merged_span_tree(self, tmp_path, capsys):
        from repro.obs import build_span_tree, read_jsonl, spans_from_records

        trace = tmp_path / "trace.jsonl"
        assert main(self._argv(tmp_path, ["--trace-out", str(trace)])) == 0
        out = capsys.readouterr().out
        assert "trace: wrote" in out
        assert "repro obs timeline" in out
        spans = spans_from_records(read_jsonl(trace))
        assert spans
        (root,) = build_span_tree(spans)
        assert root.kind == "runner.grid"
        assert len({s.trace_id for s in spans}) == 1

    def test_timeseries_writes_log_and_prints_summary(self, tmp_path, capsys):
        from repro.obs import read_timeseries

        ts = tmp_path / "ts.jsonl"
        assert main(self._argv(tmp_path, ["--timeseries", str(ts),
                                          "--sample-interval", "0"])) == 0
        out = capsys.readouterr().out
        assert "tasks scheduled/s" in out
        header, samples = read_timeseries(ts)
        assert header["label"] == "run-grid"
        assert samples[-1]["metrics"]["cells_done"] == 2

    def test_ledger_carries_throughput_and_timeseries(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        ledger = tmp_path / "ledger.jsonl"
        ts = tmp_path / "ts.jsonl"
        assert main(self._argv(tmp_path, [
            "--timeseries", str(ts), "--append-ledger",
            "--ledger-path", str(ledger)])) == 0
        capsys.readouterr()
        record = RunLedger(ledger).read()[-1]
        # 2 cells x (2 heuristics x 2 instances) records x 8 tasks each
        assert record["metrics"]["tasks_scheduled"] == 8 * 8
        assert record["metrics"]["tasks_scheduled_per_s"] > 0
        assert record["extra"]["timeseries"]["tasks_scheduled"] == 8 * 8

    def test_timeline_renders_cli_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        html = tmp_path / "trace.html"
        assert main(self._argv(tmp_path, ["--trace-out", str(trace)])) == 0
        capsys.readouterr()
        assert main(["obs", "timeline", str(trace),
                     "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert "runner.grid" in out
        assert "span(s)" in out
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_timeline_rejects_spanless_trace(self, tmp_path, capsys):
        assert main(["trace", "--example", "mct",
                     "--jsonl", str(tmp_path / "t.jsonl")]) == 0
        capsys.readouterr()
        # a heuristic trace has spans; an empty file does not
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "timeline", str(empty)]) == 1
        assert "no span records" in capsys.readouterr().err


class TestObsTailFollow:
    def test_follow_emits_only_new_records(self, tmp_path, capsys, monkeypatch):
        import repro.obs.ledger as ledger_mod
        from repro.obs.ledger import RunLedger, build_record

        path = tmp_path / "ledger.jsonl"
        store = RunLedger(path)
        store.append(build_record(
            "compare", metrics={"makespan_mean_overall": 1.0},
            timestamp="2026-01-01T00:00:00+00:00"))

        def fake_follow(ledger, emit, *, interval_s):
            # first poll re-emits everything, then one new record lands
            for record in ledger.read():
                emit(record)
            new = ledger.append(build_record(
                "study", metrics={"makespan_mean": 2.0},
                timestamp="2026-01-02T00:00:00+00:00"))
            emit(new)
            raise KeyboardInterrupt

        monkeypatch.setattr(ledger_mod, "follow_records", fake_follow)
        assert main(["obs", "tail", "--follow", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        # the pre-existing record prints once (the tail), not twice
        assert out.count("compare") == 1
        assert out.count("study") == 1

    def test_follow_flag_parses_with_interval(self):
        args = build_parser().parse_args(
            ["obs", "tail", "-f", "--interval", "0.5"])
        assert args.follow
        assert args.interval == 0.5


class TestObsSummaryPercentiles:
    def test_summary_prints_percentile_block(self, tmp_path, capsys):
        cache = tmp_path / "cells"
        ledger = tmp_path / "ledger.jsonl"
        assert main(["run-grid", "--heuristics", "mct", "--tasks", "8",
                     "--machines", "3", "--instances", "2",
                     "--cache-dir", str(cache), "--append-ledger",
                     "--ledger-path", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["obs", "summary", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "histogram percentiles" in out
        assert "runner.cell_wall_s" in out
        assert "p50=" in out and "p95=" in out and "max=" in out


class TestLedgerPathAlias:
    def test_alias_accepted_by_obs_family(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger, build_record

        ledger = tmp_path / "ledger.jsonl"
        RunLedger(ledger).append(
            build_record("compare", metrics={"makespan_mean_overall": 1.0},
                         timestamp="2026-01-01T00:00:00+00:00"))
        assert main(["obs", "tail", "--ledger-path", str(ledger)]) == 0
        assert "compare" in capsys.readouterr().out

    def test_alias_and_legacy_flag_are_the_same_destination(self):
        parser = build_parser()
        via_alias = parser.parse_args(["obs", "tail", "--ledger-path", "x"])
        via_legacy = parser.parse_args(["obs", "tail", "--ledger", "x"])
        assert via_alias.ledger == via_legacy.ledger == "x"

    def test_top_level_epilog_documents_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        helptext = capsys.readouterr().out
        assert "--ledger-path" in helptext
        assert ".repro/cells" in helptext


class TestRunRolling:
    def _argv(self, extra=()):
        return ["run-rolling", "--tasks", "200", "--machines", "4",
                "--chunk-tasks", "32", "--batch-target", "16",
                "--seed", "5", *extra]

    def test_small_run_accounts_for_every_task(self, capsys):
        assert main(self._argv()) == 0
        out = capsys.readouterr().out
        assert "tasks accounted   : 200/200" in out
        assert "tasks scheduled/s" in out

    def test_faulty_run_with_ledger_and_timeseries(self, tmp_path, capsys):
        from repro.obs.ledger import RunLedger
        from repro.obs.timeseries import read_timeseries

        ledger = tmp_path / "ledger.jsonl"
        series = tmp_path / "rolling.jsonl"
        assert main(self._argv(
            ["--faults", "--failures", "3", "--recovery", "remap",
             "--timeseries", str(series), "--sample-interval", "0",
             "--append-ledger", "--ledger-path", str(ledger)])) == 0
        out = capsys.readouterr().out
        assert "fault plan        :" in out
        assert "tasks accounted   : 200/200" in out

        record = RunLedger(ledger).read()[-1]
        assert record["command"] == "run-rolling"
        metrics = record["metrics"]
        assert metrics["tasks_scheduled_per_s"] > 0
        assert (metrics["tasks_completed"] + metrics["tasks_dropped"]) == 200
        assert record["extra"]["plan_signature"]
        assert record["extra"]["timeseries"]["tasks_scheduled"] == \
            metrics["tasks_scheduled"]

        header, samples = read_timeseries(series)
        assert header["label"] == "run-rolling"
        assert samples[-1]["metrics"]["tasks_arrived"] == 200

    def test_store_backed_run_reuses_entry(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = self._argv(["--store", str(store)])
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "store: published entry" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "store: reusing entry" in second
        # Identical seeds and horizon: the served run is identical too.
        line = next(l for l in first.splitlines() if "makespan" in l)
        assert line in second

    def test_bursty_arrivals_and_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(self._argv(["--arrival", "bursty",
                                "--trace-out", str(trace)])) == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(["obs", "timeline", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "rolling.run" in out
        assert "rolling.horizon" in out

    def test_trace_arrival_requires_file(self, capsys):
        assert main(self._argv(["--arrival", "trace"])) == 2
        assert "--arrival-trace" in capsys.readouterr().err


class TestServeParsers:
    """Parser wiring for serve/serve-load (the end-to-end subprocess
    sessions live in tools/smoke_serve.py, run by `make smoke-serve`)."""

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8351
        assert args.workers == 4
        assert args.max_pending == 64
        assert args.cache_dir == ".repro/responses"
        assert args.no_cache is False
        assert args.func.__name__ == "cmd_serve"

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--no-cache", "--workers", "2",
             "--trace-out", "t.jsonl", "--ledger-every", "5"]
        )
        assert args.port == 0
        assert args.no_cache is True
        assert args.workers == 2
        assert args.trace_out == "t.jsonl"
        assert args.ledger_every == 5.0

    def test_serve_load_defaults(self):
        args = build_parser().parse_args(["serve-load"])
        assert args.url == "http://127.0.0.1:8351/v1/schedule"
        assert args.requests == 100
        assert args.concurrency == 8
        assert args.heuristic == "min-min"
        assert args.func.__name__ == "cmd_serve_load"

    def test_serve_load_rejects_unknown_heuristic(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-load", "--heuristic", "quantum"])


class TestMalformedInput:
    """Bad flag values end in a documented error, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["run-grid", "--heterogeneities", "foo"],
        ["run-grid", "--consistencies", "bogus"],
        ["run-rolling", "--tasks", "50", "--chunk-tasks", "0",
         "--store", "{store}"],
        ["run-rolling", "--tasks", "50", "--stream", "0"],
        ["run-rolling", "--tasks", "50", "--stream", "0", "--store", "{store}"],
        ["run-rolling", "--tasks", "50", "--stream", "-1"],
        ["run-grid", "--tasks", "5", "--instances", "1", "--stream", "0",
         "--store", "{store}"],
        ["run-grid", "--tasks", "5", "--instances", "1", "--no-cache",
         "--workers", "0"],
        ["run-rolling", "--tasks", "50", "--retry-budget", "-1"],
        ["run-grid", "--no-cache", "--instances", "0"],
        ["study", "--faults", "--failure-rates", "x"],
        ["study", "--faults", "--failure-rates", "0.1,-1"],
        ["study", "--faults", "--failure-rates", "nan"],
        ["study", "--faults", "--failure-rates", "1e-6,,2e-6"],
    ], ids=lambda argv: " ".join(argv))
    def test_exits_with_documented_error(self, argv, tmp_path):
        import os
        import subprocess
        import sys

        import repro

        store = tmp_path / "store"
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro",
             *(arg.replace("{store}", str(store)) for arg in argv)],
            capture_output=True, text=True, cwd=tmp_path, env=env,
            timeout=120,
        )
        assert proc.returncode in (1, 2), proc.stderr
        assert proc.stderr.startswith(("error:", "usage:")), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not store.exists()

    @pytest.mark.parametrize("rates", ["x", "0.1,-1", "nan", "inf", "1e-6,,2e-6"])
    def test_failure_rates_is_usage_error(self, rates, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "--faults", "--failure-rates", rates])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "--failure-rates" in err
