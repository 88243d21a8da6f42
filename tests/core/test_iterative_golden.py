"""Golden digests of whole :class:`IterativeScheduler` runs.

Each digest covers, for every record of a run, the projection a reader
of the result can see: the record's matrix (labels and values), every
assignment with its start, finish and order, the makespan, the frozen
machine and tasks, and the heuristic's decision trace; then the final
finishing times (in insertion order), the removal order, the
never-frozen survivors, ``mapping_changed()`` and the commit order of
``final_mapping()``.  Every run must also survive a pickle round trip
with the same projection.

The runs cover every registered heuristic on both kernel backends, the
deterministic and the seeded random tie breaker, zero and nonzero ready
times, ``max_iterations`` of ``None``, 1 and 3, on a continuous ETC
(where Min-Min, MCT and MET certify their mapping and later iterations
are derived) and on an integer-grid ETC full of exact ties (which all
three also certify: an exact tie is a tie cluster of spread 0, see
``repro.core.ties``), plus an exhausted task pool, the seeded scheduler
and custom freeze policies.  ``WIDE``, outside the digests, holds near
ties too wide to certify, so the full loop is covered too.  A change of
the driver that keeps decisions identical keeps every digest.
"""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.core.freezing import earliest_finish_policy, most_loaded_policy
from repro.core.iterative import IterativeScheduler
from repro.core.seeding import SeededIterativeScheduler
from repro.core.ties import DeterministicTieBreaker, RandomTieBreaker
from repro.etc.generation import generate_range_based
from repro.etc.matrix import ETCMatrix
from repro.heuristics.backends import get_backend
from repro.heuristics.base import heuristic_names
from tests.properties.test_certified_iteration import CountingHeuristic

#: Seeded, shortened settings for the stochastic heuristics.
STOCHASTIC = {
    "genitor": {"iterations": 40, "rng": 11},
    "gsa": {"iterations": 40, "rng": 11},
    "random": {"rng": 11},
    "simulated-annealing": {"steps": 60, "rng": 11},
    "tabu-search": {"max_hops": 30, "rng": 11},
}

CONTINUOUS = generate_range_based(7, 4, rng=23)
TIED = ETCMatrix(np.random.default_rng(5).integers(1, 4, size=(7, 4)).astype(float))
EXHAUSTED = generate_range_based(3, 5, rng=29)
#: Near ties 0.9 and 1.5 tolerances above a minimum, like the
#: tolerance-tie witness: no kernel may certify them.
WIDE = ETCMatrix(
    [
        [1 + 1.5e-9, 1 + 0.9e-9, 1.0, 4.0],
        [100.0, 100.0, 50.0, 60.0],
        [3.0, 3.0 * (1 + 0.9e-9), 7.0, 5.0],
    ]
)
READY = [0.0, 1.5, 0.25, 3.0]


def _make(name, backend="incremental"):
    return get_backend(backend).make(name, **STOCHASTIC.get(name, {}))


def _trace(trace):
    return None if trace is None else repr(tuple(trace))


def projection(result):
    return {
        "records": [
            {
                "index": rec.index,
                "tasks": list(rec.etc.tasks),
                "machines": list(rec.etc.machines),
                "values": rec.etc.values.tolist(),
                "assignments": [
                    [a.task, a.machine, a.start, a.completion, a.order]
                    for a in rec.mapping.assignments
                ],
                "makespan": rec.makespan,
                "frozen_machine": rec.frozen_machine,
                "frozen_tasks": list(rec.frozen_tasks),
                "trace": _trace(rec.trace),
            }
            for rec in result.iterations
        ],
        "final_finish_times": list(result.final_finish_times.items()),
        "removal_order": list(result.removal_order),
        "unfrozen": list(result.unfrozen),
        "mapping_changed": result.mapping_changed(),
        "final_commit_order": [list(c) for c in result.final_mapping().commit_order()],
    }


def digest(results):
    views = []
    for result in results:
        view = projection(result)
        assert projection(pickle.loads(pickle.dumps(result))) == view
        views.append(view)
    return hashlib.sha256(json.dumps(views).encode()).hexdigest()[:16]


def _grid_runs(name, backend):
    for etc in (CONTINUOUS, TIED):
        for breaker in ("deterministic", "random"):
            for ready in (None, READY):
                for cap in (None, 1, 3):
                    tie_breaker = (
                        DeterministicTieBreaker()
                        if breaker == "deterministic"
                        else RandomTieBreaker(7)
                    )
                    scheduler = IterativeScheduler(
                        _make(name, backend), tie_breaker=tie_breaker
                    )
                    yield scheduler.run(etc, ready, max_iterations=cap)


#: One digest per heuristic: both backends must reproduce it.
GRID_GOLDEN = {
    "branch-and-bound": "8f3c92df0b823761",
    "duplex": "011e366444c882f3",
    "genitor": "84c2af021968700d",
    "gsa": "a9a8ff1a6554ff6b",
    "k-percent-best": "0ea25a0c303f90b5",
    "max-min": "56377ab87a0a99d8",
    "mct": "9efe33bf25a18d23",
    "met": "5a204961ca1df982",
    "min-min": "2724c54bee136fc5",
    "olb": "bb171af28cde7e73",
    "random": "d7469fcb96059eb3",
    "segmented-min-min": "14fdb437e18d63a1",
    "simulated-annealing": "e0fadc3ae0efa37f",
    "sufferage": "d4fa94b12000d79d",
    "switching-algorithm": "43994cf8eaedaf45",
    "tabu-search": "df638f0280f6399d",
}


@pytest.mark.parametrize("backend", ["incremental", "reference"])
@pytest.mark.parametrize("name", heuristic_names())
def test_grid_digest(name, backend):
    assert digest(_grid_runs(name, backend)) == GRID_GOLDEN[name]


def _exhausted_runs():
    for name in heuristic_names():
        for ready in (None, READY + [0.5]):
            yield IterativeScheduler(_make(name)).run(EXHAUSTED, ready)


def _seeded_runs():
    for name in heuristic_names():
        for etc in (CONTINUOUS, TIED):
            yield SeededIterativeScheduler(_make(name)).run(etc, READY)


def _freeze_policy_runs():
    for name in heuristic_names():
        for policy in (earliest_finish_policy, most_loaded_policy):
            for etc in (CONTINUOUS, TIED):
                yield IterativeScheduler(_make(name), freeze_policy=policy).run(
                    etc, READY, max_iterations=3
                )


def _random_makespan_tie_runs():
    for name in heuristic_names():
        yield IterativeScheduler(
            _make(name), makespan_tie_breaker=RandomTieBreaker(3)
        ).run(TIED)


SPECIAL_GOLDEN = {
    "exhausted": "1a50058ecc30debf",
    "freeze-policy": "cb1c11be66471b17",
    "random-makespan-ties": "5d97aa4c89ce60e0",
    "seeded": "0b5761c1b5983a30",
}

SPECIAL_RUNS = {
    "exhausted": _exhausted_runs,
    "seeded": _seeded_runs,
    "freeze-policy": _freeze_policy_runs,
    "random-makespan-ties": _random_makespan_tie_runs,
}


@pytest.mark.parametrize("case", sorted(SPECIAL_RUNS))
def test_special_digest(case):
    assert digest(SPECIAL_RUNS[case]()) == SPECIAL_GOLDEN[case]


def test_certified_runs_are_covered():
    """The grid's ETCs certify, so its runs take the derived path; wide
    near ties do not, and their runs take the full loop."""
    for name in ("min-min", "mct", "met"):
        assert _make(name).map_tasks(CONTINUOUS).certified
        assert _make(name).map_tasks(TIED).certified
        heuristic = CountingHeuristic(_make(name))
        result = IterativeScheduler(heuristic).run(WIDE)
        assert not result.original.mapping.certified
        assert heuristic.calls == result.num_iterations > 1
