"""Golden digests of the decision events of single ``map_tasks`` calls.

Each digest covers, for every run, the traced event stream (kind and
fields, in order) and the tracer's counters and histograms after one
``Heuristic.map_tasks`` call.  The runs cover the eight heuristics
with decision events (Min-Min, Max-Min, Duplex, MCT, MET, K-Percent
Best, Sufferage and SWA) on the paper's witness ETCs and on a seeded
near-tie battery, under the deterministic, the seeded random (one
seed per instance) and a scripted tie breaker.  Both kernel backends
must reproduce one digest per heuristic and policy, so a change to
where the events are emitted that keeps every field, every value and
the order keeps every digest.
Comparing the two backends with each other could not show that: when
they share an emitter, they agree by construction.

The scripted policy replays, at every genuine tie, the highest
candidate; its script is recorded by a probe run on the same backend.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.ties import (
    DeterministicTieBreaker,
    RandomTieBreaker,
    ScriptedTieBreaker,
    TieBreaker,
)
from repro.etc.matrix import ETCMatrix
from repro.etc.witness import (
    KPB_EXAMPLE_PERCENT,
    SWA_EXAMPLE_HIGH_THRESHOLD,
    SWA_EXAMPLE_LOW_THRESHOLD,
    kpb_example_etc,
    mct_met_example_etc,
    minmin_example_etc,
    sufferage_example_etc,
    swa_example_etc,
)
from repro.heuristics.backends import get_backend
from repro.obs.export import event_to_dict
from repro.obs.tracer import CollectingTracer, use_tracer

pytestmark = pytest.mark.obs

#: Heuristic name -> constructor keywords (the paper examples' settings).
HEURISTICS = {
    "min-min": {},
    "max-min": {},
    "duplex": {},
    "mct": {},
    "met": {},
    "k-percent-best": {"percent": KPB_EXAMPLE_PERCENT},
    "sufferage": {},
    "switching-algorithm": {
        "low": SWA_EXAMPLE_LOW_THRESHOLD,
        "high": SWA_EXAMPLE_HIGH_THRESHOLD,
    },
}

#: Relative perturbations straddling the 1e-9 tie tolerance.
EPSILONS = (0.0, 3e-10, 8e-10, 2e-9, 5e-9)


def _near_tie_battery(count=12):
    """Seeded ETCs of the form ``base * (1 + eps)`` with near-tie ready
    times: exact ties, ties inside the tolerance and just outside."""
    out = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 25)), int(rng.integers(1, 9)))
        values = rng.integers(1, 7, shape) * (1.0 + rng.choice(EPSILONS, shape))
        ready = rng.integers(0, 9, shape[1]) * (1.0 + rng.choice(EPSILONS, shape[1]))
        out.append((ETCMatrix(values), ready.tolist()))
    return out


INSTANCES = [
    (etc(), None)
    for etc in (
        minmin_example_etc,
        mct_met_example_etc,
        swa_example_etc,
        kpb_example_etc,
        sufferage_example_etc,
    )
] + _near_tie_battery()


class _HighestCandidate(TieBreaker):
    """Picks the highest candidate and records each genuine tie's pick."""

    def __init__(self) -> None:
        self.picks = []

    def choose(self, candidates) -> int:
        pick = int(np.max(candidates))
        if np.size(candidates) > 1:
            self.picks.append(pick)
        return pick


def _traced_map(backend, name, etc, ready, breaker):
    heuristic = get_backend(backend).make(name, **HEURISTICS[name])
    tracer = CollectingTracer()
    with use_tracer(tracer):
        heuristic.map_tasks(etc, ready, breaker)
    return tracer


def _breaker(policy, backend, name, etc, ready, seed):
    if policy == "deterministic":
        return DeterministicTieBreaker()
    if policy == "random":
        return RandomTieBreaker(seed)
    probe = _HighestCandidate()
    _traced_map(backend, name, etc, ready, probe)
    return ScriptedTieBreaker(probe.picks)


def _view(tracer):
    return {
        "events": [
            [record["kind"], record["fields"]]
            for record in map(event_to_dict, tracer.events)
        ],
        "counters": tracer.counters.as_dict(),
        "histograms": {
            name: [list(s.buckets), list(s.counts), s.count, s.sum, s.min, s.max]
            for name, s in tracer.histograms.as_dict().items()
        },
    }


def digest(backend, name, policy):
    views = []
    for seed, (etc, ready) in enumerate(INSTANCES):
        breaker = _breaker(policy, backend, name, etc, ready, seed)
        views.append(_view(_traced_map(backend, name, etc, ready, breaker)))
    return hashlib.sha256(json.dumps(views).encode()).hexdigest()[:16]


#: One digest per heuristic and tie policy: both backends reproduce it.
GOLDEN = {
    ("duplex", "deterministic"): "4fb15a6b7bdaa7f7",
    ("duplex", "random"): "322ea7b235beaf51",
    ("duplex", "scripted"): "2c1f7a926d9ae037",
    ("k-percent-best", "deterministic"): "73e19accad4e7682",
    ("k-percent-best", "random"): "b7ea0749b6367ecc",
    ("k-percent-best", "scripted"): "62a8113ae7847097",
    ("max-min", "deterministic"): "4a487d1ef3eea7f8",
    ("max-min", "random"): "f8a0c8f66fd1fb26",
    ("max-min", "scripted"): "26c22dadf41eb451",
    ("mct", "deterministic"): "860e4fe92958aeec",
    ("mct", "random"): "d60e48a46102b888",
    ("mct", "scripted"): "25ffbe85886ec4f2",
    ("met", "deterministic"): "9a7f7a306e7856d9",
    ("met", "random"): "6cc1302e0937fe76",
    ("met", "scripted"): "3b27bf05a1bc3a91",
    ("min-min", "deterministic"): "3ce82ce0f85165c9",
    ("min-min", "random"): "70ec7e5ef003d43f",
    ("min-min", "scripted"): "251c4b1c60fbdad5",
    ("sufferage", "deterministic"): "3f7314eb3459d885",
    ("sufferage", "random"): "051487ad1d08e87d",
    ("sufferage", "scripted"): "5adcd039253307ab",
    ("switching-algorithm", "deterministic"): "08850f25f27df1ef",
    ("switching-algorithm", "random"): "e6fdef22ab7b3451",
    ("switching-algorithm", "scripted"): "14bd94113787e367",
}


@pytest.mark.parametrize("backend", ["incremental", "reference"])
@pytest.mark.parametrize("policy", ["deterministic", "random", "scripted"])
@pytest.mark.parametrize("name", sorted(HEURISTICS))
def test_decision_event_digest(name, policy, backend):
    assert digest(backend, name, policy) == GOLDEN[(name, policy)]


def test_battery_holds_ties_and_scripts():
    """The battery exercises genuine ties, and the scripted policy
    consumes its script (it is not the deterministic policy in
    disguise)."""
    probe = _HighestCandidate()
    for etc, ready in INSTANCES:
        _traced_map("reference", "min-min", etc, ready, probe)
    assert len(probe.picks) >= 10
    assert any(pick > 0 for pick in probe.picks)
