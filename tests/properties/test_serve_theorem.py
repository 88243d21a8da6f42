"""The paper's theorems, checked through ``POST /v1/iterate``.

With deterministic ties, Min-Min, MCT and MET give the same mapping at
every iteration (Theorems §3.2–3.4), so the service must answer
``mapping_changed: false`` for any small integer ETC — integer values
make exact ties common — and its ``makespans``, ``removal_order`` and
``final_mapping`` must equal a library ``IterativeScheduler`` run on
the ``reference`` backend (the paper-transcription oracles).

The tolerance-tie witness, where near ties break the theorems, must
come back with ``mapping_changed: true``, again exactly as the library
reports it.

Each payload goes through the HTTP front end three times on a fresh
cache: the first answer is computed, the second is a normal-path cache
hit that fills the raw-body hit index, and the third is a fast hit,
which must be the second's bytes exactly.
"""

from __future__ import annotations

import asyncio
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iterative import IterativeScheduler
from repro.core.ties import DeterministicTieBreaker
from repro.etc.matrix import ETCMatrix
from repro.heuristics.backends import get_backend
from repro.serve.service import SchedulingService
from tests.conftest import HYPOTHESIS_PROFILE
from tests.properties.test_serve_fuzz import exchange, post_bytes

pytestmark = pytest.mark.serve

DEEP = HYPOTHESIS_PROFILE == "deep"


@st.composite
def integer_etcs(draw) -> list[list[int]]:
    tasks = draw(st.integers(1, 7))
    machines = draw(st.integers(1, 4))
    row = st.lists(st.integers(1, 12), min_size=machines, max_size=machines)
    return draw(st.lists(row, min_size=tasks, max_size=tasks))


def iterate_thrice(values, heuristic) -> list[dict]:
    """POST one ``/v1/iterate`` body three times on a fresh cache; the
    decoded answers, after checking the third is the second's bytes
    served from the hit index."""
    body = json.dumps(
        {"heuristic": heuristic, "ties": "deterministic", "etc": {"values": values}}
    ).encode()
    raw = post_bytes("/v1/iterate", body)
    with tempfile.TemporaryDirectory() as cache_dir:
        service = SchedulingService(cache_dir)
        try:
            sent = [asyncio.run(exchange(service, raw)) for _ in range(3)]
        finally:
            service.close()
    assert service.counts["fast_hits"] == 1
    assert sent[2] == sent[1]
    responses = [json.loads(r.partition(b"\r\n\r\n")[2]) for r in sent]
    assert [r["cached"] for r in responses] == [False, True, True]
    return [r["result"] for r in responses]


def library_run(values, heuristic):
    """The ``reference`` backend's run of the same request."""
    return IterativeScheduler(
        get_backend("reference").make(heuristic),
        tie_breaker=DeterministicTieBreaker(),
    ).run(ETCMatrix(values))


def assert_matches(result: dict, library) -> None:
    tasks = library.original.etc.tasks
    final_mapping = library.final_mapping().to_dict()
    assert result["mapping_changed"] is library.mapping_changed()
    assert result["makespans"] == list(library.makespans())
    assert result["removal_order"] == list(library.removal_order)
    assert result["final_mapping"] == {t: final_mapping[t] for t in tasks}
    assert list(result["final_mapping"]) == list(tasks)


@settings(max_examples=200 if DEEP else 60)
@given(values=integer_etcs(), heuristic=st.sampled_from(["min-min", "mct", "met"]))
def test_iterate_route_matches_the_theorem_and_the_library(values, heuristic):
    library = library_run(values, heuristic)
    for result in iterate_thrice(values, heuristic):
        assert result["mapping_changed"] is False
        assert_matches(result, library)


@pytest.mark.parametrize("heuristic", ["min-min", "mct", "met"])
def test_tolerance_tie_witness_through_the_service(heuristic):
    """Near ties break the theorems (see
    tests/integration/test_tolerance_tie_witness.py); the service must
    report the change exactly as the library does."""
    d = 1e-9
    values = [[1 + 1.5 * d, 1 + 0.9 * d, 1.0], [100.0, 100.0, 50.0]]
    library = library_run(values, heuristic)
    assert library.mapping_changed()
    for result in iterate_thrice(values, heuristic):
        assert_matches(result, library)
