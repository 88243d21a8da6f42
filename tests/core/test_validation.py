"""Unit tests for repro.core.validation."""

import dataclasses

import pytest

from repro.core.iterative import IterativeScheduler
from repro.core.schedule import Mapping
from repro.core.validation import validate_iterative_result, validate_mapping
from repro.etc.generation import generate_range_based
from repro.exceptions import MappingError
from repro.heuristics import MCT, Sufferage


def _append_raw(mapping, *, task, machine, start, finish):
    """Corrupt ``mapping`` by appending an unchecked row to its commit
    columns (bypassing every check of ``assign``)."""
    mapping._task.append(task)
    mapping._machine.append(machine)
    mapping._start.append(start)
    mapping._finish.append(finish)
    mapping._assignments = None


class TestValidateMapping:
    def test_valid_mapping_passes(self, square_etc):
        m = MCT().map_tasks(square_etc)
        validate_mapping(m)

    def test_partial_mapping_passes(self, tiny_etc):
        m = Mapping(tiny_etc)
        m.assign("a", "x")
        validate_mapping(m)

    def test_detects_tampered_completion(self, tiny_etc):
        m = Mapping(tiny_etc)
        m.assign("a", "x")
        _append_raw(m, task=1, machine=1, start=0.0, finish=99.0)
        with pytest.raises(MappingError, match="completion"):
            validate_mapping(m)

    def test_detects_wrong_start(self, tiny_etc):
        m = Mapping(tiny_etc)
        m.assign("a", "x")
        _append_raw(m, task=1, machine=0, start=0.5, finish=3.5)
        with pytest.raises(MappingError, match="starts at"):
            validate_mapping(m)

    def test_detects_duplicate_task(self, tiny_etc):
        m = Mapping(tiny_etc)
        a = m.assign("a", "x")
        _append_raw(m, task=0, machine=0, start=a.start, finish=a.completion)
        with pytest.raises(MappingError, match="more than once"):
            validate_mapping(m)

    def test_detects_stale_ready_cache(self, tiny_etc):
        m = Mapping(tiny_etc)
        m.assign("a", "x")
        m._ready[0] = 123.0  # corrupt the incremental cache
        with pytest.raises(MappingError):
            validate_mapping(m)


class TestValidateIterativeResult:
    def test_valid_results_pass(self):
        for seed in range(3):
            etc = generate_range_based(12, 4, rng=seed)
            validate_iterative_result(IterativeScheduler(Sufferage()).run(etc))

    def test_detects_corrupted_final_finish(self, square_etc):
        result = IterativeScheduler(MCT()).run(square_etc)
        result.final_finish_times[result.removal_order[0]] += 1.0
        with pytest.raises(MappingError):
            validate_iterative_result(result)

    def test_detects_missing_machine(self, square_etc):
        result = IterativeScheduler(MCT()).run(square_etc)
        del result.final_finish_times[square_etc.machines[0]]
        with pytest.raises(MappingError):
            validate_iterative_result(result)

    def test_detects_stale_makespan(self, square_etc):
        result = IterativeScheduler(MCT()).run(square_etc)
        bad_rec = dataclasses.replace(result.iterations[1], makespan=-1.0)
        tampered = dataclasses.replace(
            result,
            iterations=(result.iterations[0], bad_rec, *result.iterations[2:]),
        )
        with pytest.raises(MappingError):
            validate_iterative_result(tampered)

    def test_detects_removal_order_mismatch(self, square_etc):
        result = IterativeScheduler(MCT()).run(square_etc)
        tampered = dataclasses.replace(
            result, removal_order=tuple(reversed(result.removal_order))
        )
        # a reversed order disagrees with the iteration records unless
        # it was palindromic (it is not, for 4 machines)
        with pytest.raises(MappingError):
            validate_iterative_result(tampered)
