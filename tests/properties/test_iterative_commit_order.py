"""``IterativeResult.commit_order()`` against the label-based composite.

The technique's dispatch order is read in index space: each record's
frozen rows as the driver kept them, then the survivors of a capped run
(from the original mapping's commits when the last record is derived).
The oracle below is the composite ``final_mapping()`` built before that
read existed: it maps every record's ``frozen_tasks`` labels back
through the input matrix and reads the survivors from the last record's
own mapping.  Both must give the same ``(task rows, machine columns)``,
and ``final_mapping()`` must commit exactly that order.

The runs cover certified (derived) and uncertified (re-mapped) records,
``max_iterations`` None/1/2/3, exhausted task pools, random ties, the
seeded scheduler and non-default freeze policies.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.freezing import FREEZE_POLICIES
from repro.core.iterative import IterativeScheduler
from repro.core.seeding import SeededIterativeScheduler
from repro.core.ties import RandomTieBreaker
from repro.etc.generation import generate_range_based
from repro.etc.matrix import ETCMatrix
from repro.heuristics.backends import get_backend
from tests.conftest import HYPOTHESIS_PROFILE
from tests.properties.test_minmin_sorted_column import near_tie_instances

DEEP = HYPOTHESIS_PROFILE == "deep"

HEURISTICS = (
    "min-min",
    "mct",
    "met",
    "max-min",
    "sufferage",
    "k-percent-best",
    "switching-algorithm",
    "olb",
)


def label_commit_order(result):
    """The composite's commit order, read through labels and each
    record's mapping (the reference for the index-space read)."""
    etc = result.etc
    tasks: list[int] = []
    machines: list[int] = []
    for rec in result.iterations:
        tasks += map(etc.task_index, rec.frozen_tasks)
        machines += [etc.machine_index(rec.frozen_machine)] * len(rec.frozen_tasks)
    if len(tasks) < etc.num_tasks:
        last = result.iterations[-1]
        rows = [etc.task_index(t) for t in last.etc.tasks]
        cols = [etc.machine_index(m) for m in last.etc.machines]
        frozen = last.etc.machine_index(last.frozen_machine)
        for t, m in zip(*last.mapping.commit_order()):
            if m != frozen:
                tasks.append(rows[t])
                machines.append(cols[m])
    return tuple(tasks), tuple(machines)


def _scheduler(kind, heuristic, seed):
    if kind == "plain":
        return IterativeScheduler(heuristic)
    if kind == "random-ties":
        return IterativeScheduler(heuristic, tie_breaker=RandomTieBreaker(seed))
    if kind == "random-makespan-ties":
        return IterativeScheduler(
            heuristic, makespan_tie_breaker=RandomTieBreaker(seed)
        )
    if kind == "seeded":
        return SeededIterativeScheduler(heuristic)
    return IterativeScheduler(heuristic, freeze_policy=FREEZE_POLICIES[kind])


KINDS = (
    "plain",
    "random-ties",
    "random-makespan-ties",
    "seeded",
    "earliest-finish",
    "most-loaded",
)


def _check(result):
    derived = [rec for rec in result.iterations if rec._derived()]
    order = result.commit_order()
    # The read builds no derived record's matrix or mapping.
    assert all("mapping" not in rec.__dict__ for rec in derived)
    assert all("etc" not in rec.__dict__ for rec in derived)
    assert order == label_commit_order(result)
    assert sorted(order[0]) == list(range(result.etc.num_tasks))
    assert result.final_mapping().commit_order() == order


@pytest.mark.parametrize("name", HEURISTICS)
@given(
    data=near_tie_instances(),
    cap=st.sampled_from([None, 1, 2, 3]),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200 if DEEP else 25, deadline=None)
def test_commit_order_matches_label_composite(name, data, cap, kind, seed):
    etc, ready = data
    heuristic = get_backend("incremental").make(name)
    result = _scheduler(kind, heuristic, seed).run(etc, ready, max_iterations=cap)
    _check(result)


@pytest.mark.parametrize("name", ("min-min", "mct", "met"))
@pytest.mark.parametrize("cap", [None, 1, 2, 3])
def test_certified_runs_derive_and_match(name, cap):
    """Continuous ETCs certify: records 1.. are derived, and a capped
    run's survivors come from the original mapping."""
    etc = generate_range_based(24, 5, rng=11)
    ready = [0.5 * j for j in range(etc.num_machines)]
    result = IterativeScheduler(get_backend("incremental").make(name)).run(
        etc, ready, max_iterations=cap
    )
    assert result.original.mapping.certified
    assert all(rec._derived() for rec in result.iterations[1:])
    _check(result)


@pytest.mark.parametrize("name", HEURISTICS)
@pytest.mark.parametrize("cap", [None, 2])
def test_exhausted_task_pool(name, cap):
    """Fewer tasks than machines: the pool empties before one machine
    remains, and the survivors commit nothing."""
    etc = ETCMatrix(np.array([[3.0, 1.0, 2.0, 4.0, 5.0], [2.0, 4.0, 1.0, 3.0, 6.0]]))
    result = IterativeScheduler(get_backend("incremental").make(name)).run(
        etc, max_iterations=cap
    )
    assert result.unfrozen
    _check(result)


def test_records_built_outside_the_driver_read_labels():
    """A result whose records lack the driver's indices falls back to
    label lookups and still gives the composite's order."""
    etc = generate_range_based(12, 4, rng=5)
    result = IterativeScheduler(get_backend("reference").make("sufferage")).run(
        etc, max_iterations=2
    )
    plain = [
        type(rec)(
            rec.index, rec.etc, rec.mapping, rec.makespan,
            rec.frozen_machine, rec.frozen_tasks, rec.trace,
        )
        for rec in result.iterations
    ]
    rebuilt = dataclasses.replace(result, iterations=tuple(plain))
    assert rebuilt.commit_order() == result.commit_order()
    assert rebuilt.commit_order() == label_commit_order(result)
