"""Unit tests for grid cells and pooled grid execution."""

import pytest

from repro.analysis.experiments import ExperimentConfig, run_experiment
from repro.analysis.parallel import split_into_cells
from repro.analysis.runner import run_grid
from repro.etc.generation import Consistency, Heterogeneity
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def grid_config():
    return ExperimentConfig(
        heuristics=("mct", "sufferage"),
        num_tasks=10,
        num_machines=3,
        heterogeneities=(Heterogeneity.HIHI, Heterogeneity.LOLO),
        consistencies=(Consistency.CONSISTENT, Consistency.INCONSISTENT),
        instances_per_cell=2,
        seed=0,
    )


class TestSplit:
    def test_one_subconfig_per_cell(self, grid_config):
        cells = split_into_cells(grid_config)
        assert len(cells) == 4
        seen = {(c.heterogeneities, c.consistencies) for c in cells}
        assert len(seen) == 4

    def test_cells_reproduce_their_slice(self, grid_config):
        """Each cell sub-config must yield exactly the records the full
        grid yields for that cell (stable per-cell seeding)."""
        full = run_experiment(grid_config)
        for cell in split_into_cells(grid_config):
            het = cell.heterogeneities[0]
            cons = cell.consistencies[0]
            expected = [
                r for r in full
                if r.heterogeneity == het and r.consistency == cons
            ]
            got = run_experiment(cell)
            assert [g.comparison for g in got] == [e.comparison for e in expected]


class TestParallel:
    def test_parallel_equals_serial(self, grid_config):
        serial = run_experiment(grid_config)
        parallel = run_grid(grid_config, max_workers=2).records
        assert len(parallel) == len(serial)
        assert [r.comparison for r in parallel] == [r.comparison for r in serial]
        assert [(r.heuristic, r.etc_class, r.instance_index) for r in parallel] == [
            (r.heuristic, r.etc_class, r.instance_index) for r in serial
        ]

    def test_single_cell_short_circuits(self):
        config = ExperimentConfig(
            heuristics=("mct",), num_tasks=6, num_machines=3,
            instances_per_cell=2, seed=1,
        )
        assert len(run_grid(config, max_workers=4).records) == 2

    def test_workers_validation(self, grid_config):
        with pytest.raises(ConfigurationError):
            run_grid(grid_config, max_workers=0)

    def test_explicit_single_worker_runs_serially(self, grid_config):
        out = run_grid(grid_config, max_workers=1).records
        assert len(out) == len(run_experiment(grid_config))
