"""Seeded iterative runs against a label-space oracle.

Two mechanisms carry "the previous iteration's mapping restricted to the
surviving tasks and machines" into the next iteration: the seeded
scheduler of the paper's Section 5 (:class:`SeededIterativeScheduler`
keeps that restriction unless a fresh mapping is strictly better), and
the driver's seeding of heuristics that accept a seed (Genitor and the
other search heuristics, Section 3.1).

The oracle below rebuilds that restriction the plain way, from
``Assignment`` labels: a ``{task: machine}`` dict over the previous
mapping's assignments, filtered by the surviving labels, replayed with
:func:`replay_mapping` or passed as ``seed_mapping``.  It keeps its own
previous mapping and ignores what the driver hands its hook, so it does
not depend on how the driver carries the incumbent.  Every run of the
real schedulers must project (``test_iterative_golden.projection``:
each record's assignments with start and completion bits, the trace,
``mapping_changed()`` and the final commit order) exactly like the
oracle's run on the same inputs, and its ``mapping_changed()`` and
final commit order must match the ones read from the records' labels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iterative import IterativeScheduler
from repro.core.seeding import SeededIterativeScheduler, replay_mapping
from repro.core.ties import RandomTieBreaker
from repro.etc.matrix import ETCMatrix
from repro.heuristics.backends import get_backend
from tests.conftest import HYPOTHESIS_PROFILE
from tests.core.test_iterative_golden import STOCHASTIC, projection

DEEP = HYPOTHESIS_PROFILE == "deep"

#: Heuristics run under the seeded scheduler.
SEEDED = ("min-min", "mct", "sufferage", "k-percent-best", "switching-algorithm")
#: Heuristics seeded by the driver itself (``supports_seeding``).
SEEDING = ("genitor", "gsa", "simulated-annealing", "tabu-search")


class LabelSpaceOracle(IterativeScheduler):
    """The driver with a label-space incumbent.

    ``seeded`` adds the seeded scheduler's keep-unless-strictly-better
    rule; without it the hook only seeds heuristics that support it.
    """

    def __init__(self, heuristic, *, seeded, **kwargs) -> None:
        super().__init__(heuristic, **kwargs)
        self.seeded = seeded
        self._previous = None

    def run(self, *args, **kwargs):
        self._previous = None
        return super().run(*args, **kwargs)

    def _map_iteration(self, current_etc, ready_vec, _driver_incumbent):
        previous, self._previous = self._previous, None
        fresh = self.heuristic.map_tasks(
            current_etc,
            ready_vec,
            self.tie_breaker,
            seed_mapping=self._label_seed(previous, current_etc),
        )
        mapping = fresh
        if self.seeded and previous is not None:
            incumbent_assignments = {
                a.task: a.machine
                for a in previous.assignments
                if current_etc.has_task(a.task)
            }
            assert set(incumbent_assignments) == set(current_etc.tasks)
            assert all(
                current_etc.has_machine(m) for m in incumbent_assignments.values()
            )
            incumbent = replay_mapping(current_etc, ready_vec, incumbent_assignments)
            if not fresh.makespan() < incumbent.makespan():
                mapping = incumbent
        self._previous = mapping
        return mapping

    def _label_seed(self, previous, current_etc):
        if (
            previous is None
            or not self.seed_across_iterations
            or not self.heuristic.supports_seeding
        ):
            return None
        return {
            a.task: a.machine
            for a in previous.assignments
            if current_etc.has_task(a.task) and current_etc.has_machine(a.machine)
        }


@st.composite
def instances(draw):
    """Continuous or integer-grid ETCs up to 24x6 with zero or nonzero
    ready times."""
    num_tasks = draw(st.integers(1, 24))
    num_machines = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (num_tasks, num_machines)
    if draw(st.booleans()):
        values = rng.uniform(1.0, 100.0, shape)
    else:
        values = rng.integers(1, 5, shape).astype(float)
    if draw(st.booleans()):
        ready = [0.0] * num_machines
    else:
        ready = np.round(rng.uniform(0.0, 20.0, num_machines), 2).tolist()
    return ETCMatrix(values), ready


def _breakers(ties, seed):
    if ties == "deterministic":
        return {}
    return {
        "tie_breaker": RandomTieBreaker(seed),
        "makespan_tie_breaker": RandomTieBreaker(seed + 1),
    }


def _label_outcome(result):
    """``mapping_changed()`` and the final mapping's commit order, read
    from the records' labels."""
    original = result.original.mapping.to_dict()
    changed = any(
        rec.mapping.to_dict() != {t: original[t] for t in rec.etc.tasks}
        for rec in result.iterations[1:]
    )
    order = [
        (task, rec.frozen_machine)
        for rec in result.iterations
        for task in rec.frozen_tasks
    ]
    last = result.iterations[-1]
    order += [
        (a.task, a.machine)
        for a in last.mapping.assignments
        if a.machine != last.frozen_machine
    ]
    return changed, order


def _check(name, seeded, data, cap, ties, seed):
    etc, ready = data
    settings_ = STOCHASTIC.get(name, {})
    make = get_backend("incremental").make
    scheduler = SeededIterativeScheduler if seeded else IterativeScheduler
    real = scheduler(make(name, **settings_), **_breakers(ties, seed)).run(
        etc, ready, max_iterations=cap
    )
    oracle = LabelSpaceOracle(
        make(name, **settings_), seeded=seeded, **_breakers(ties, seed)
    ).run(etc, ready, max_iterations=cap)
    assert projection(real) == projection(oracle)
    final = [(a.task, a.machine) for a in real.final_mapping().assignments]
    assert (real.mapping_changed(), final) == _label_outcome(real)
    if seeded:
        spans = real.makespans()
        assert all(b <= a for a, b in zip(spans, spans[1:]))


@pytest.mark.parametrize("name", SEEDED)
@given(
    data=instances(),
    cap=st.sampled_from([None, 1, 3]),
    ties=st.sampled_from(["deterministic", "random"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200 if DEEP else 25, deadline=None)
def test_seeded_scheduler_matches_label_space_oracle(name, data, cap, ties, seed):
    _check(name, True, data, cap, ties, seed)


@pytest.mark.parametrize("seeded", [False, True], ids=["driver-seed", "seeded"])
@pytest.mark.parametrize("name", SEEDING)
@given(
    data=instances(),
    cap=st.sampled_from([None, 1, 3]),
    ties=st.sampled_from(["deterministic", "random"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100 if DEEP else 10, deadline=None)
def test_seeding_heuristics_match_label_space_oracle(
    name, seeded, data, cap, ties, seed
):
    _check(name, seeded, data, cap, ties, seed)
