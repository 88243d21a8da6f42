"""Operation counts of the index-space incumbent and ``final_mapping``.

The iterative driver carries the previous mapping restricted to the
survivors as a machine-column vector, so a seeded run builds no
:class:`~repro.core.schedule.Assignment`; ``final_mapping()`` takes each
record's frozen tasks and reads at most one commit order (the last
iteration's, for the survivors of a capped run).  The counts pin the
work without timing it.
"""

import pytest

import repro.core.schedule as schedule
from repro.core.iterative import IterativeScheduler
from repro.core.schedule import Mapping
from repro.core.seeding import SeededIterativeScheduler
from repro.etc.generation import generate_range_based
from repro.heuristics.backends import get_backend


@pytest.fixture
def built_assignments(monkeypatch):
    built = []
    real = schedule.Assignment

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(schedule, "Assignment", counting)
    return built


@pytest.mark.parametrize("cap", [None, 4])
def test_certified_final_mapping_reads_one_commit_order(monkeypatch, cap):
    etc = generate_range_based(64, 16, rng=3)
    result = IterativeScheduler(get_backend("incremental").make("min-min")).run(
        etc, max_iterations=cap
    )
    assert result.original.mapping.certified
    assert result.num_iterations == (cap or 16)
    expected = result.final_mapping().commit_order()
    calls = []
    real = Mapping.commit_order

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Mapping, "commit_order", counting)
    assert real(result.final_mapping()) == expected
    assert len(calls) <= 1


def test_seeded_min_min_builds_no_assignment(built_assignments):
    etc = generate_range_based(48, 8, rng=3)
    result = SeededIterativeScheduler(get_backend("incremental").make("min-min")).run(
        etc, [0.5 * j for j in range(8)]
    )
    result.final_mapping()
    result.mapping_changed()
    assert result.num_iterations == 8
    assert built_assignments == []


def test_driver_seeded_genitor_builds_no_assignment(built_assignments):
    etc = generate_range_based(24, 5, rng=3)
    genitor = get_backend("incremental").make("genitor", iterations=20, rng=1)
    result = IterativeScheduler(genitor).run(etc)
    assert result.num_iterations == 5
    assert built_assignments == []
