"""One seeding rule for every name-based heuristic construction.

The registry forwards ``rng`` exactly to the heuristics whose
constructor takes one, so each entry point that builds a heuristic by
name and seed (CLI, serve, the fault study, the experiment runner)
returns the same answer for the same call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentConfig, run_experiment
from repro.analysis.robustness import fault_degradation_study
from repro.cli import build_parser, main
from repro.etc.generation import Consistency, Heterogeneity, generate_range_based
from repro.etc.io import save_csv
from repro.heuristics.backends import backend_names, get_backend
from repro.heuristics.base import (
    get_heuristic,
    heuristic_names,
    seeded_heuristic_names,
)
from repro.heuristics.minmin import MinMin
from repro.serve.models import RequestValidationError, parse_request
from repro.serve.service import execute_request

SEEDED = seeded_heuristic_names()

ETC = generate_range_based(
    20, 5, Heterogeneity.HIHI, Consistency.INCONSISTENT,
    rng=np.random.default_rng(1),
)
VALUES = ETC.values.tolist()


class TestRule:
    def test_read_from_the_constructors(self):
        assert SEEDED == (
            "genitor", "gsa", "random", "simulated-annealing", "tabu-search"
        )
        assert set(SEEDED) < set(heuristic_names())

    @pytest.mark.parametrize("name", SEEDED)
    def test_rng_reaches_a_seeded_heuristic(self, name):
        def mapping(**kwargs):
            return get_heuristic(name, **kwargs).map_tasks(ETC).to_dict()

        assert mapping(rng=3) == mapping(rng=3)

    @pytest.mark.parametrize("backend", backend_names())
    def test_deterministic_heuristics_ignore_rng(self, backend):
        heuristic = get_backend(backend).make("min-min", rng=3)
        assert isinstance(heuristic, MinMin)
        assert heuristic.map_tasks(ETC).to_dict() == MinMin().map_tasks(ETC).to_dict()

    def test_configured_rng_wins_over_the_cell_stream(self):
        def records(kwargs):
            config = ExperimentConfig(
                heuristics=("random",), num_tasks=6, num_machines=3,
                instances_per_cell=2, seed=5, heuristic_kwargs=kwargs,
            )
            return [r.comparison for r in run_experiment(config)]

        assert records({"random": {"rng": 9}}) == records({"random": {"rng": 9}})
        assert records({"random": {"rng": 9}}) != records({})


@pytest.mark.serve
@pytest.mark.parametrize("name", SEEDED)
@pytest.mark.parametrize("kind", ["map", "iterate"])
def test_serve_result_is_a_function_of_the_request(name, kind):
    values = VALUES if kind == "map" else VALUES[:10]
    payload = {"kind": kind, "heuristic": name, "seed": 3,
               "etc": {"values": values}}
    first = execute_request(parse_request(payload))
    assert execute_request(parse_request(payload)) == first


@pytest.mark.parametrize("name", SEEDED)
def test_cli_map_seed_fixes_the_allocation(name, tmp_path, capsys):
    path = tmp_path / "etc.csv"
    save_csv(ETC, path)
    outputs = []
    for _ in range(2):
        assert main(["map", "--etc", str(path), "--heuristic", name,
                     "--seed", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_fault_study_seed_fixes_the_rows():
    def rows():
        return fault_degradation_study(
            "genitor", seed=1, failure_rates=(1e-5,), num_tasks=12,
            num_machines=4, instances=2,
        )

    assert rows() == rows()


class TestNegativeSeeds:
    def test_serve_rejects_them(self):
        with pytest.raises(RequestValidationError, match="'seed' must be >= 0"):
            parse_request({"kind": "map", "seed": -5, "etc": {"values": VALUES}})

    @pytest.mark.parametrize("command", [
        ["map", "--etc", "x.csv"],
        ["run-grid"],
        ["serve-load"],
    ])
    def test_cli_rejects_them(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, "--seed", "-5"])
        assert exit_info.value.code == 2
        assert "must be non-negative" in capsys.readouterr().err
