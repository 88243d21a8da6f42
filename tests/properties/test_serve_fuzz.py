"""Fuzzing the scheduling service's two entry points.

``SchedulingService.handle`` gets arbitrary JSON values plus payloads
built from the request fields with arbitrary values in them, and the
HTTP front end (``handle_connection``, over in-memory streams) gets
arbitrary bytes plus request-shaped bytes with arbitrary methods,
paths, Content-Length headers and bodies.  Whatever comes in:

* the answer carries a documented status code (200/400/404/405/413/
  500/503) — never an unhandled exception;
* a well-formed HTTP request (complete header section, a declared body
  length that is actually sent) always gets an answer;
* every non-200 leaves the response cache directory and the raw-body
  hit index exactly as they were;
* a 200 over HTTP, repeated twice, is served from the hit index the
  second time, with the first repeat's bytes.

Payloads are arbitrary JSON, valid requests, and valid requests with
one field overwritten by an arbitrary JSON value.  Valid requests are
kept cheap (ETCs of at most 3x3, ensembles of at most 6 tasks) so the
default budget fits the tier-1 run; the ``deep`` profile widens the
heuristic pool to every registered heuristic.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics.backends import backend_names
from repro.heuristics.base import heuristic_names
from repro.serve.http import _MAX_HEADER_BYTES, handle_connection
from repro.serve.service import SchedulingService
from tests.conftest import HYPOTHESIS_PROFILE

pytestmark = pytest.mark.serve

DEEP = HYPOTHESIS_PROFILE == "deep"

DOCUMENTED = {200, 400, 404, 405, 413, 500, 503}

ROUTES = ("/v1/schedule", "/v1/map", "/v1/iterate", "/v1/study",
          "/v1/stats", "/healthz", "/nope")

#: Heuristics that answer a tiny request in milliseconds; the deep
#: profile adds the slow metaheuristics (genitor, tabu search, ...).
HEURISTICS = heuristic_names() if DEEP else (
    "min-min", "max-min", "mct", "met", "olb", "sufferage", "duplex",
    "k-percent-best", "switching-algorithm", "segmented-min-min",
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def etc_values(draw) -> list:
    """Rectangular small matrices, now and then holding a zero, a
    negative, a non-finite or a beyond-float-range entry."""
    machines = draw(st.integers(1, 3))
    cell = st.integers(-1, 9) | st.floats() | st.integers(-(2**1100), 2**1100)
    row = st.lists(cell, min_size=machines, max_size=machines)
    return draw(st.lists(row, min_size=1, max_size=3))


#: Valid knob values, so that most base requests validate.
KNOBS = {
    "heuristic": st.sampled_from(HEURISTICS),
    "ties": st.sampled_from(["deterministic", "random"]),
    "backend": st.sampled_from(backend_names()),
    "seed": st.integers(0, 2**32),
    "seeded": st.booleans(),
    "max_iterations": st.integers(1, 4),
    "trace": st.booleans(),
    "request_id": st.text(max_size=8),
}

inline_requests = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["map", "iterate"]),
        "etc": st.fixed_dictionaries(
            {"values": etc_values()},
            optional={"tasks": st.lists(st.text(max_size=3), max_size=3)},
        ),
    },
    optional=KNOBS,
)

study_requests = st.fixed_dictionaries(
    {
        "kind": st.just("study"),
        "ensemble": st.fixed_dictionaries(
            {
                "tasks": st.integers(0, 6),
                "machines": st.integers(0, 3),
                "instances": st.integers(0, 2),
            },
            optional={
                "heterogeneity": st.sampled_from(["hihi", "lolo"]),
                "consistency": st.sampled_from(["consistent", "inconsistent"]),
                "method": st.sampled_from(["range", "cvb"]),
            },
        ),
    },
    optional=KNOBS,
)

base_requests = inline_requests | study_requests

#: Fields a mutation may overwrite with an arbitrary JSON value.
FIELDS = (*KNOBS, "kind", "etc", "ensemble", "schema", "bogus")


def _mutate(payload: dict):
    return st.tuples(st.sampled_from(FIELDS), json_values).map(
        lambda kv: {**payload, kv[0]: kv[1]}
    )


payloads = json_values | base_requests | base_requests.flatmap(_mutate)


#: Header text without line breaks, so each drawn piece stays on its line.
header_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    max_size=6,
)


def post_bytes(path: str, body: bytes) -> bytes:
    """A well-formed POST of ``body`` to ``path``."""
    head = f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


#: Well-formed posts of (mostly) valid requests.
valid_posts = base_requests.map(
    lambda p: (post_bytes("/v1/schedule", json.dumps(p).encode()), True)
)


@st.composite
def odd_requests(draw) -> tuple[bytes, bool]:
    """``(raw bytes, complete)``: a request-shaped message with arbitrary
    method, path, body and Content-Length, and whether its declared body
    was sent in full."""
    method = draw(st.sampled_from(["GET", "POST", "PUT"]) | header_text)
    path = draw(st.sampled_from(ROUTES) | header_text)
    body = draw(payloads.map(lambda p: json.dumps(p).encode()) | st.binary(max_size=64))
    length = draw(
        st.just(str(len(body)))
        | st.integers(-10, len(body) + 5).map(str)
        | header_text
    )
    head = f"{method} {path} HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
    try:
        declared = int(length)
    except ValueError:
        declared = -1
    return head.encode() + body, declared <= len(body)


http_requests = valid_posts | odd_requests()


class _Writer:
    """Collects what ``handle_connection`` writes."""

    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


async def exchange(service: SchedulingService, raw: bytes) -> bytes:
    """Serve ``raw`` through ``handle_connection``; the bytes written."""
    reader = asyncio.StreamReader(limit=_MAX_HEADER_BYTES)
    reader.feed_data(raw)
    reader.feed_eof()
    writer = _Writer()
    await handle_connection(service, reader, writer)
    return bytes(writer.data)


def status_of(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def snapshot(service: SchedulingService):
    root = service.cache.root
    files = (
        sorted((p.name, p.read_bytes()) for p in root.iterdir())
        if root.is_dir() else []
    )
    return files, list(service._hit_index.items())


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    service = SchedulingService(str(tmp_path_factory.mktemp("responses")))
    yield service
    service.close()


FUZZ = settings(max_examples=300 if DEEP else 150)


@FUZZ
@given(payload=payloads)
def test_handle_answers_only_documented_statuses(service, payload):
    before = snapshot(service)
    status, body = asyncio.run(service.handle(payload))
    assert status in DOCUMENTED
    json.dumps(body)  # every answer is encodable
    if status != 200:
        assert set(body) == {"error"}
        assert snapshot(service) == before


@FUZZ
@given(raw=st.binary(max_size=256))
def test_arbitrary_bytes_get_documented_statuses(service, raw):
    before = snapshot(service)
    response = asyncio.run(exchange(service, raw))
    if response:
        assert status_of(response) in DOCUMENTED
    if not response or status_of(response) != 200:
        assert snapshot(service) == before


@FUZZ
@given(message=http_requests)
def test_request_shaped_bytes_get_documented_statuses(service, message):
    raw, complete = message
    before = snapshot(service)
    response = asyncio.run(exchange(service, raw))
    if complete:
        assert response, "a complete request went unanswered"
    if response:
        assert status_of(response) in DOCUMENTED
    if not response or status_of(response) != 200:
        assert snapshot(service) == before
        return
    if "cached" not in json.loads(response.partition(b"\r\n\r\n")[2]):
        return  # /healthz or /v1/stats
    # A schedule 200 is cached: its first repeat fills the hit index
    # and the next replays exactly those bytes.
    fast_hits = service.counts["fast_hits"]
    repeats = [asyncio.run(exchange(service, raw)) for _ in range(2)]
    assert repeats[1] == repeats[0]
    assert json.loads(repeats[0].partition(b"\r\n\r\n")[2])["cached"] is True
    assert service.counts["fast_hits"] > fast_hits
