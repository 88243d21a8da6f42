"""Transport-agnostic service core: handle → status/envelope contracts.

Everything here drives ``await service.handle(payload)`` directly (no
sockets), covering the compute/cache/error/overload paths, the traced
span shape the smoke gate asserts, and the ledger summary.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.obs import CollectingTracer, use_tracer
from repro.serve.cache import RESPONSE_CACHE_SCHEMA
from repro.serve.models import RESPONSE_SCHEMA
from repro.serve.service import STATS_SCHEMA, SchedulingService, execute_request

pytestmark = pytest.mark.serve

VALUES = [[4.0, 5.0, 5.0], [6.0, 2.0, 2.0], [5.0, 6.0, 3.0], [4.0, 1.0, 3.0]]
MAP_PAYLOAD = {"kind": "map", "etc": {"values": VALUES}}


def run(coro):
    return asyncio.run(coro)


def make_service(tmp_path, **kwargs) -> SchedulingService:
    return SchedulingService(str(tmp_path / "responses"), **kwargs)


def test_map_request_computes(tmp_path):
    service = make_service(tmp_path)
    try:
        status, response = run(service.handle(MAP_PAYLOAD))
    finally:
        service.close()
    assert status == 200
    assert response["schema"] == RESPONSE_SCHEMA
    assert response["cached"] is False
    result = response["result"]
    assert result["kind"] == "map"
    assert result["tasks"] == 4 and result["machines"] == 3
    assert set(result["assignments"]) == {"t0", "t1", "t2", "t3"}
    assert result["makespan"] == pytest.approx(
        max(result["finish_times"].values())
    )


def test_repeat_request_served_from_cache(tmp_path):
    service = make_service(tmp_path)
    try:
        status1, first = run(service.handle(MAP_PAYLOAD))
        status2, second = run(service.handle(MAP_PAYLOAD))
    finally:
        service.close()
    assert (status1, status2) == (200, 200)
    assert first["cached"] is False and second["cached"] is True
    assert first["key"] == second["key"]
    assert first["result"] == second["result"]
    assert service.counts["requests"] == 2
    assert service.counts["computed"] == 1
    assert service.counts["cache_hits"] == 1


def test_trace_verbosity_shares_the_cache_entry(tmp_path):
    """Non-identity fields must hit the entry the base request filled."""
    service = make_service(tmp_path)
    try:
        _, first = run(service.handle(MAP_PAYLOAD))
        _, second = run(
            service.handle({**MAP_PAYLOAD, "trace": True, "request_id": "r-1"})
        )
    finally:
        service.close()
    assert second["cached"] is True
    assert second["key"] == first["key"]
    assert second["request_id"] == "r-1"
    assert "request_id" not in first


@pytest.mark.parametrize(
    "kind, heuristic", [("map", "sufferage"), ("iterate", "min-min")]
)
def test_cache_entry_of_a_large_instance_stays_small(tmp_path, kind, heuristic):
    """The entry names a 128x16 ETC by shape, digest and labels instead
    of holding its 2,048 values."""
    values = np.round(np.random.default_rng(3).uniform(1.0, 100.0, (128, 16)), 2)
    payload = {"kind": kind, "heuristic": heuristic,
               "etc": {"values": values.tolist()}}
    service = make_service(tmp_path)
    try:
        status, response = run(service.handle(payload))
    finally:
        service.close()
    assert status == 200
    entry = service.cache.path_for(response["key"])
    assert entry.stat().st_size < 6 * 1024
    stored = json.loads(entry.read_text())
    assert stored["schema"] == RESPONSE_CACHE_SCHEMA == "repro-serve-cache/2"
    assert stored["identity"]["etc"]["shape"] == [128, 16]
    assert stored["result"] == response["result"]


def test_cache_disabled_recomputes(tmp_path):
    service = SchedulingService(None)
    try:
        _, first = run(service.handle(MAP_PAYLOAD))
        _, second = run(service.handle(MAP_PAYLOAD))
    finally:
        service.close()
    assert first["cached"] is False and second["cached"] is False
    assert service.counts["computed"] == 2
    assert service.counts["cache_hits"] == 0


def test_validation_error_is_400(tmp_path):
    service = make_service(tmp_path)
    try:
        status, body = run(service.handle({"kind": "nonsense"}))
    finally:
        service.close()
    assert status == 400
    assert body["error"]["type"] == "validation"
    assert "kind" in body["error"]["message"]
    assert service.counts["validation_errors"] == 1
    assert service.counts["computed"] == 0


def test_coerced_labels_are_400_and_never_cached(tmp_path):
    """A string of machine labels is a validation error, not machines a, b."""
    service = make_service(tmp_path)
    payload = {"kind": "map", "etc": {"values": [[1.0, 2.0]], "machines": "ab"}}
    try:
        status, body = run(service.handle(payload))
    finally:
        service.close()
    assert status == 400
    assert body["error"]["type"] == "validation"
    assert "'etc.machines' must be an array of strings" in body["error"]["message"]
    assert service.counts["computed"] == 0
    assert not list(tmp_path.rglob("*.json"))


def test_execution_error_is_500(tmp_path, monkeypatch):
    def explode(request):
        raise ReproError("synthetic compute failure")

    monkeypatch.setattr("repro.serve.service.execute_request", explode)
    service = make_service(tmp_path)
    try:
        status, body = run(service.handle(MAP_PAYLOAD))
    finally:
        service.close()
    assert status == 500
    assert body["error"]["type"] == "execution"
    assert "synthetic compute failure" in body["error"]["message"]
    assert service.counts["execution_errors"] == 1
    # A failed computation must not poison the cache.
    assert len(service.cache) == 0


def test_unexpected_compute_exception_is_500(tmp_path, monkeypatch):
    def explode(request):
        raise FloatingPointError("overflow encountered in multiply")

    monkeypatch.setattr("repro.serve.service.execute_request", explode)
    service = make_service(tmp_path)
    try:
        status, body = run(service.handle(MAP_PAYLOAD))
    finally:
        service.close()
    assert status == 500
    assert body["error"] == {
        "type": "execution",
        "message": "FloatingPointError: overflow encountered in multiply",
    }
    assert service.counts["execution_errors"] == 1
    assert len(service.cache) == 0


def _not_an_object(entry: dict) -> list:
    return [entry]


def _without_result(entry: dict) -> dict:
    return {k: v for k, v in entry.items() if k != "result"}


@pytest.mark.parametrize("spoil", [_not_an_object, _without_result])
def test_malformed_cache_entry_is_500(tmp_path, spoil):
    service = make_service(tmp_path)
    try:
        status, first = run(service.handle(MAP_PAYLOAD))
        path = service.cache.path_for(first["key"])
        path.write_text(json.dumps(spoil(json.loads(path.read_text()))))
        status, body = run(service.handle(MAP_PAYLOAD))
    finally:
        service.close()
    assert status == 500
    assert body["error"]["type"] == "execution"
    assert "delete it to recompute" in body["error"]["message"]
    assert service.counts["execution_errors"] == 1


def test_overload_sheds_with_503(tmp_path, monkeypatch):
    def slow(request):
        time.sleep(0.05)
        return execute_request(request)

    monkeypatch.setattr("repro.serve.service.execute_request", slow)
    service = make_service(tmp_path, max_pending=1)

    async def burst():
        return await asyncio.gather(
            *(service.handle({**MAP_PAYLOAD, "seed": i}) for i in range(3))
        )

    try:
        responses = run(burst())
    finally:
        service.close()
    statuses = sorted(status for status, _ in responses)
    assert statuses == [200, 503, 503]
    shed = [body for status, body in responses if status == 503]
    assert all(body["error"]["type"] == "overload" for body in shed)
    assert service.counts["shed"] == 2
    # Shed requests never count as handled traffic beyond the shed bucket.
    assert service.counts["requests"] == 1


def test_iterate_and_study_kinds(tmp_path):
    service = make_service(tmp_path)
    try:
        _, iterate = run(
            service.handle({"kind": "iterate", "etc": {"values": VALUES}})
        )
        _, study = run(
            service.handle(
                {
                    "kind": "study",
                    "ensemble": {"tasks": 6, "machines": 3, "instances": 2},
                }
            )
        )
    finally:
        service.close()
    result = iterate["result"]
    assert result["kind"] == "iterate"
    assert result["iterations"] >= 1
    assert len(result["makespans"]) == result["iterations"]
    # makespans() tracks the shrinking frozen-submatrix makespan per
    # iteration; the comparison carries the full-schedule before/after.
    assert result["original_makespan"] == result["makespans"][0]
    assert result["final_makespan"] >= result["original_makespan"] or not (
        result["makespan_increased"]
    )
    assert len(result["machines"]) == 3
    rows = study["result"]["rows"]
    assert len(rows) == 1
    assert rows[0]["heuristic"] == "min-min"
    assert rows[0]["runs"] == 2


def test_traced_hit_has_no_compute_span(tmp_path):
    """The acceptance property: a cache hit must not re-enter compute."""
    tracer = CollectingTracer()
    service = make_service(tmp_path)
    try:
        with use_tracer(tracer):
            run(service.handle(MAP_PAYLOAD))
            run(service.handle(MAP_PAYLOAD))
    finally:
        service.close()
    kinds = [span.kind for span in tracer.spans]
    assert kinds.count("serve.request") == 2
    assert kinds.count("serve.compute") == 1
    counters = tracer.counters.as_dict()
    assert counters["serve.requests"] == 2
    assert counters["serve.cache_hits"] == 1
    assert counters["serve.computed"] == 1


def test_stats_snapshot(tmp_path):
    service = make_service(tmp_path)
    try:
        run(service.handle(MAP_PAYLOAD))
        run(service.handle({"kind": "nonsense"}))
        stats = service.stats()
    finally:
        service.close()
    assert stats["schema"] == STATS_SCHEMA
    assert stats["counts"]["requests"] == 2
    assert stats["by_kind"] == {"map": 1}
    assert stats["latency_ms"]["count"] == 2
    assert stats["latency_ms"]["p95"] >= stats["latency_ms"]["p50"] >= 0.0
    assert stats["cache_dir"].endswith("responses")


def test_ledger_record_summarises_and_deduplicates(tmp_path):
    service = make_service(tmp_path)
    try:
        run(service.handle(MAP_PAYLOAD))
        run(service.handle(MAP_PAYLOAD))
        record = service.ledger_record(config={"port": 0})
    finally:
        service.close()
    assert record is not None
    assert record["schema"] == "repro-ledger/1"
    assert record["command"] == "serve"
    assert record["metrics"]["serve.requests"] == 2
    assert record["metrics"]["serve.cache_hits"] == 1
    assert record["metrics"]["serve.computed"] == 1
    assert record["extra"]["stats"]["schema"] == STATS_SCHEMA
    # No new traffic since the last record: nothing to log.
    assert service.ledger_record(config={"port": 0}) is None


def test_invalid_limits_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        SchedulingService(str(tmp_path), max_workers=0)
    with pytest.raises(ConfigurationError):
        SchedulingService(str(tmp_path), max_pending=0)


# -- raw-body hit index ------------------------------------------------


def _serve_indexed(service, payload, path="/v1/schedule") -> bytes:
    """One request the way the HTTP front end serves it: the hit index
    first, else ``handle`` plus an offer of its bytes to the index."""
    body = json.dumps(payload).encode()
    stored = service.fast_hit(path, body)
    if stored is not None:
        return stored
    status, response = run(service.handle(payload))
    encoded = json.dumps(response, sort_keys=True).encode()
    service.remember(path, body, status, response, encoded)
    return encoded


def test_first_repeat_fills_the_index(tmp_path):
    service = make_service(tmp_path)
    try:
        sent = [_serve_indexed(service, MAP_PAYLOAD) for _ in range(3)]
    finally:
        service.close()
    assert [json.loads(b)["cached"] for b in sent] == [False, True, True]
    assert sent[2] == sent[1]
    assert service.counts["fast_hits"] == 1
    assert service.counts["cache_hits"] == 2
    assert service.counts["requests"] == 3
    assert service.by_kind == {"map": 3}


def test_hit_index_evicts_least_recently_used(tmp_path, monkeypatch):
    # Equal-sized responses: the seed is in the key, not in the result.
    a, b, c = ({**MAP_PAYLOAD, "seed": seed} for seed in (1, 2, 3))
    service = make_service(tmp_path)
    try:
        for payload in (a, a, b, b):
            _serve_indexed(service, payload)
        size = service._hit_index_bytes // 2
        monkeypatch.setattr(
            "repro.serve.service.HIT_INDEX_MAX_BYTES", 2 * size + size // 2
        )
        _serve_indexed(service, a)  # a fast hit: b is now least recent
        for payload in (c, c):
            _serve_indexed(service, payload)

        def indexed(payload):
            return service.fast_hit(
                "/v1/schedule", json.dumps(payload).encode()
            ) is not None

        assert [indexed(p) for p in (a, b, c)] == [True, False, True]
        assert service._hit_index_bytes == 2 * size
    finally:
        service.close()


def test_entry_edited_in_place_is_not_a_fast_hit(tmp_path):
    service = make_service(tmp_path)
    try:
        sent = [_serve_indexed(service, MAP_PAYLOAD) for _ in range(3)]
        assert service.counts["fast_hits"] == 1
        entry = service.cache.path_for(json.loads(sent[0])["key"])
        inode = entry.stat().st_ino
        stored = json.loads(entry.read_text())
        stored["result"]["note"] = "edited in place"
        entry.write_text(json.dumps(stored))
        assert entry.stat().st_ino == inode
        edited = _serve_indexed(service, MAP_PAYLOAD)
        again = _serve_indexed(service, MAP_PAYLOAD)
    finally:
        service.close()
    assert json.loads(edited)["result"]["note"] == "edited in place"
    assert service.counts["fast_hits"] == 2  # the edit re-indexed, not served
    assert again == edited
    assert service.counts["cache_hits"] == 4


def test_fast_hit_respects_the_admission_cap(tmp_path):
    service = make_service(tmp_path, max_pending=1)
    try:
        for _ in range(2):
            _serve_indexed(service, MAP_PAYLOAD)
        body = json.dumps(MAP_PAYLOAD).encode()
        service._inflight = 1  # one request in flight elsewhere
        assert service.fast_hit("/v1/schedule", body) is None
        status, _ = run(service.handle(MAP_PAYLOAD))
        service._inflight = 0
        assert status == 503
        assert service.fast_hit("/v1/schedule", body) is not None
    finally:
        service.close()
    assert service.counts["shed"] == 1
    assert service.counts["fast_hits"] == 1


def test_no_cache_means_no_index(tmp_path):
    service = SchedulingService(None)
    try:
        sent = [_serve_indexed(service, MAP_PAYLOAD) for _ in range(3)]
    finally:
        service.close()
    assert all(json.loads(b)["cached"] is False for b in sent)
    assert not service._hit_index
    assert service.counts["fast_hits"] == 0
