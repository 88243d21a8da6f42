"""Unit tests for Min-Min, Max-Min and Duplex."""

import numpy as np
import pytest

from repro.core.ties import RandomTieBreaker, ScriptedTieBreaker
from repro.etc.generation import generate_range_based
from repro.etc.matrix import ETCMatrix
from repro.heuristics import Duplex, MaxMin, MinMin, minmin_round_table
from repro.heuristics.minmin import ReferenceMinMin
from repro.core.schedule import Mapping


class TestMinMin:
    def test_first_commit_is_global_min_pair(self, square_etc):
        mapping = MinMin().map_tasks(square_etc)
        first = mapping.assignments[0]
        assert first.completion == pytest.approx(square_etc.values.min())

    def test_two_phase_semantics(self, square_etc):
        """Replay: each committed pair must be the min over per-task
        minimum completion times at that point."""
        mapping = MinMin().map_tasks(square_etc)
        ready = np.zeros(square_etc.num_machines)
        unmapped = set(square_etc.tasks)
        for a in mapping.assignments:
            best_cts = {
                t: (square_etc.task_row(t) + ready).min() for t in unmapped
            }
            assert a.completion == pytest.approx(min(best_cts.values()))
            ready[square_etc.machine_index(a.machine)] = a.completion
            unmapped.remove(a.task)

    def test_task_pair_tie_goes_oldest(self):
        etc = ETCMatrix([[1.0, 9.0], [1.0, 9.0]])
        mapping = MinMin().map_tasks(etc)
        assert mapping.assignments[0].task == "t0"

    def test_machine_tie_respects_policy(self):
        etc = ETCMatrix([[2.0, 2.0]])
        assert MinMin().map_tasks(etc).machine_of("t0") == "m0"
        scripted = MinMin().map_tasks(etc, tie_breaker=ScriptedTieBreaker([1]))
        assert scripted.machine_of("t0") == "m1"

    def test_paper_example(self, minmin_etc):
        mapping = MinMin().map_tasks(minmin_etc)
        assert mapping.machine_finish_times() == {"m1": 5.0, "m2": 2.0, "m3": 4.0}
        assert mapping.to_dict() == {
            "t1": "m2",
            "t2": "m2",
            "t3": "m3",
            "t4": "m1",
        }

    @pytest.mark.parametrize(
        "values,certified,breaker",
        [
            (generate_range_based(24, 5, rng=3).values, True, None),
            # Near ties wider than the certificate: the scan path.
            ([[1 + 1.5e-9, 1 + 0.9e-9, 1.0], [100.0, 100.0, 50.0]], False, None),
            # Exact ties under a random policy: the candidate path.
            ([[2.0, 2.0, 3.0], [2.0, 2.0, 3.0], [5.0, 1.0, 1.0]], False, 3),
        ],
        ids=["certified", "near-tie", "random-ties"],
    )
    def test_commits_once(self, monkeypatch, values, certified, breaker):
        """The kernel makes no per-task commit: one assign_many call
        with the whole decided order, times equal to the reference's."""
        etc = ETCMatrix(values)
        calls = dict.fromkeys(("assign_index", "assign_many"), 0)
        for name in calls:
            method = getattr(Mapping, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(Mapping, name, counted)
        ties = None if breaker is None else RandomTieBreaker(breaker)
        mapping = MinMin().map_tasks(etc, tie_breaker=ties)
        assert calls == {"assign_index": 0, "assign_many": 1}
        assert mapping.certified is certified
        ties = None if breaker is None else RandomTieBreaker(breaker)
        reference = ReferenceMinMin().map_tasks(etc, tie_breaker=ties)
        assert mapping.assignments == reference.assignments

    def test_round_table_diagnostics(self, square_etc):
        m = Mapping(square_etc)
        m.assign("t0", "m0")
        table = minmin_round_table(m)
        assert table.shape == (3, 4)
        # row 0 corresponds to t1 with m0 loaded by t0's ETC
        assert table[0, 0] == square_etc.etc("t1", "m0") + square_etc.etc("t0", "m0")


class TestMaxMin:
    def test_first_commit_is_max_of_row_minima(self, square_etc):
        mapping = MaxMin().map_tasks(square_etc)
        first = mapping.assignments[0]
        row_minima = square_etc.values.min(axis=1)
        assert first.completion == pytest.approx(row_minima.max())

    def test_differs_from_minmin_in_general(self):
        etc = generate_range_based(20, 4, rng=0)
        assert MinMin().map_tasks(etc).to_dict() != MaxMin().map_tasks(etc).to_dict()

    def test_long_tasks_first(self, square_etc):
        mapping = MaxMin().map_tasks(square_etc)
        # the task with the largest minimum ETC must be committed first
        row_minima = {t: square_etc.task_row(t).min() for t in square_etc.tasks}
        expected_first = max(row_minima, key=row_minima.__getitem__)
        assert mapping.assignments[0].task == expected_first


class TestDuplex:
    def test_never_worse_than_either(self):
        for seed in range(5):
            etc = generate_range_based(25, 5, rng=seed)
            duplex = Duplex().map_tasks(etc).makespan()
            assert duplex <= MinMin().map_tasks(etc).makespan() + 1e-9
            assert duplex <= MaxMin().map_tasks(etc).makespan() + 1e-9

    def test_ties_pick_minmin(self):
        etc = ETCMatrix([[1.0, 1.0]])
        mapping = Duplex().map_tasks(etc)
        assert mapping.to_dict() == MinMin().map_tasks(etc).to_dict()

    def test_picks_maxmin_when_better(self):
        # Classic Max-Min-wins shape: one long task plus fillers.
        etc = ETCMatrix(
            [[10.0, 11.0], [2.0, 2.5], [2.0, 2.5], [2.0, 2.5], [2.0, 2.5]]
        )
        mm = MinMin().map_tasks(etc).makespan()
        xm = MaxMin().map_tasks(etc).makespan()
        duplex = Duplex().map_tasks(etc).makespan()
        assert duplex == pytest.approx(min(mm, xm))
        assert xm < mm  # sanity: the instance indeed favours Max-Min
