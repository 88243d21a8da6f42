"""Unit tests for the fault-injection degradation study."""

import pytest

from repro.analysis.robustness import (
    fault_degradation_study,
    format_fault_table,
    non_makespan_mean,
)
from repro.exceptions import ConfigurationError


class TestNonMakespanMean:
    def test_drops_exactly_the_latest_machine(self):
        assert non_makespan_mean({"a": 1.0, "b": 2.0, "c": 9.0}) == 1.5

    def test_single_machine_returns_its_own_time(self):
        assert non_makespan_mean({"only": 4.0}) == 4.0


@pytest.fixture(scope="module")
def rows():
    return fault_degradation_study(
        "min-min",
        failure_rates=(1e-6, 5e-6),
        num_tasks=12,
        num_machines=4,
        instances=2,
        seed=0,
    )


class TestFaultDegradationStudy:
    def test_two_rows_per_rate(self, rows):
        assert len(rows) == 4
        assert {(r.failure_rate, r.mapping_kind) for r in rows} == {
            (1e-6, "original"), (1e-6, "iterative"),
            (5e-6, "original"), (5e-6, "iterative"),
        }

    def test_degradations_at_least_one(self, rows):
        for row in rows:
            assert row.makespan_degradation >= 1.0 - 1e-9
            assert row.non_makespan_degradation > 0.0
            assert row.mean_makespan >= row.fault_free_makespan - 1e-9

    def test_paired_design_shares_fault_free_baseline_shape(self, rows):
        # Same instances across rates: the fault-free numbers per mapping
        # kind are identical in every rate group.
        by_kind = {}
        for row in rows:
            by_kind.setdefault(row.mapping_kind, set()).add(
                (row.fault_free_makespan, row.fault_free_non_makespan)
            )
        assert all(len(values) == 1 for values in by_kind.values())

    def test_deterministic(self, rows):
        again = fault_degradation_study(
            "min-min",
            failure_rates=(1e-6, 5e-6),
            num_tasks=12,
            num_machines=4,
            instances=2,
            seed=0,
        )
        assert again == rows

    def test_format_table_groups_by_rate(self, rows):
        table = format_fault_table(rows)
        assert table.count("failure rate") == 2
        assert "min-min/original" in table
        assert "min-min/iterative" in table

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            fault_degradation_study(instances=0)
        with pytest.raises(ConfigurationError):
            fault_degradation_study(failure_rates=())
        with pytest.raises(ConfigurationError):
            fault_degradation_study(failure_rates=(-1.0,))
        with pytest.raises(ConfigurationError):
            fault_degradation_study(downtime_frac=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"failure_rates": (float("nan"),)},
        {"failure_rates": (1e-6, float("inf"))},
        {"downtime_frac": float("nan")},
        {"downtime_frac": float("inf")},
    ], ids=repr)
    def test_rejects_non_finite_inputs(self, kwargs):
        with pytest.raises(ConfigurationError):
            fault_degradation_study(**kwargs)
