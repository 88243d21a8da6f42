"""serve-mixed: ``repro serve`` under a closed loop of mixed requests.

The server runs as a subprocess (``--workers 2``) on a fresh response
cache.  Set-up is start, ``/healthz`` and one pass over the hit set, so
that every later request for it is served from the cache.  One client
connection then sends a seeded schedule, closed loop: about three in
four requests repeat the hit set, the rest carry fresh inputs and miss.
Each request is timed from just before it is sent; the server's own
``cached`` flag says whether it was a hit.  Every body is checked
afterwards against ``execute_request`` with the ``reference`` backend,
run in this process.

One connection, not two: with two, a hit often waited on the server's
GIL while the other connection's miss computed, so hit latencies split
into a fast and a slow mode and their median jumped between runs.  With
one request in flight at a time, client and server take turns, so the
single-threaded speed gauge tracks the load: every request and every
set-up is timed between two gauge readings and scaled to reference
speed, like the timings of the other workloads.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench.common import Outcome, digest, gauged, median, p90, speed_factor
from perfbench.layers import layer_metrics, run_traced

from repro.serve.cache import ResponseCache
from repro.serve.models import (
    RESPONSE_SCHEMA,
    parse_request,
    request_identity,
    request_key,
)
from repro.serve.service import execute_request

#: Every block of eight requests holds six hits and two misses.
BLOCK = (True,) * 6 + (False,) * 2
#: Request kinds in the proportions of the mix (2:2:1), with their heuristics.
KIND_CYCLE = ("iterate", "iterate", "map", "map", "study")
HEURISTIC = {"iterate": "min-min", "map": "sufferage", "study": "mct"}
SETUP_REPEATS = 5

SIZES = {
    "full": {"tasks": 128, "machines": 16, "hit_set": 15, "replay": 160,
             "study": {"tasks": 32, "machines": 4, "instances": 4},
             "max_rate": 300},
    "tiny": {"tasks": 12, "machines": 3, "hit_set": 5, "replay": 24,
             "study": {"tasks": 8, "machines": 3, "instances": 2},
             "max_rate": 3000},
}


def make_payload(kind: str, heuristic: str, rng: np.random.Generator, spec: dict) -> dict:
    if kind == "study":
        return {
            "kind": "study",
            "heuristic": heuristic,
            "ensemble": dict(spec["study"]),
            "seed": int(rng.integers(0, 2**31 - 1)),
        }
    values = np.round(rng.uniform(1.0, 100.0, (spec["tasks"], spec["machines"])), 2)
    return {"kind": kind, "heuristic": heuristic, "etc": {"values": values.tolist()}}


class Schedule:
    """Seeded request mix: a hit set plus a stream of fresh requests.

    Shares are stratified rather than drawn independently: each block of
    ``BLOCK`` holds exactly six hits, each pass over the hit set uses
    every member once, and kinds follow ``KIND_CYCLE`` in shuffled
    rounds.  Only the order and the input values depend on the seed, so
    runs with different seeds carry the same mix.
    """

    def __init__(self, seed: int, spec: dict, size: int) -> None:
        rng = np.random.default_rng(seed)

        def shuffled(items):
            while True:
                yield from (items[i] for i in rng.permutation(len(items)))

        kinds = shuffled(KIND_CYCLE)

        def fresh() -> dict:
            kind = next(kinds)
            return make_payload(kind, HEURISTIC[kind], rng, spec)

        self.hit_set = [fresh() for _ in range(spec["hit_set"])]
        hits = shuffled(self.hit_set)
        blocks = shuffled(BLOCK)
        self.planned_hit = [next(blocks) for _ in range(size)]
        self.payloads = [next(hits) if hit else fresh() for hit in self.planned_hit]
        self.bodies = [json.dumps(p).encode("utf-8") for p in self.payloads]
        self.hit_bodies = [json.dumps(p).encode("utf-8") for p in self.hit_set]


def post(port: int, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", "/v1/schedule", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``repro serve`` subprocess; ``stop`` returns its peak RSS."""

    def __init__(self, root: Path, cache_dir: Path, cwd: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", "2", "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=cwd,
        )
        self.port = None
        for line in self.proc.stdout:
            if line.startswith("serving on http://"):
                self.port = int(line.rsplit(":", 1)[1])
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("repro serve exited before it was listening")
        deadline = time.perf_counter() + 30
        while True:
            try:
                if get(self.port, "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.01)

    def stop(self) -> float:
        """SIGTERM, reap, and return the server's peak RSS in MiB."""
        if self.proc.returncode is not None:
            return 0.0
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + 30
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024.0


def set_up(root: Path, work: Path, schedule: Schedule, index: int):
    cache_dir = work / f"responses-{index}"
    server = Server(root, cache_dir, work)
    try:
        for body in schedule.hit_bodies:
            status, _ = post(server.port, body)
            if status != 200:
                raise RuntimeError(f"warming the hit set returned HTTP {status}")
    except BaseException:
        server.stop()
        raise
    return server


def drive(port: int, schedule: Schedule, seconds: float):
    """Sends the schedule over one connection, each request when the last
    one is answered, for ``seconds``; returns one ``(index, status,
    body, ms, raw_ms)`` per request sent, ``ms`` at reference speed."""
    responses: list[tuple] = []
    deadline = time.perf_counter() + seconds
    before = speed_factor()
    for index, body in enumerate(schedule.bodies):
        if time.perf_counter() >= deadline:
            break
        started = time.perf_counter()
        status, reply = post(port, body)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        after = speed_factor()
        responses.append(
            (index, status, reply, elapsed_ms * (before + after) / 2, elapsed_ms))
        before = after
    return responses


def expected_result(payload: dict) -> tuple[str, dict]:
    """``(request_key, result)``: the key of the request as sent and the
    result of the ``reference`` backend, computed in process and
    JSON-normalised."""
    request = parse_request(payload)
    reference = dataclasses.replace(request, backend="reference")
    result = json.loads(json.dumps(execute_request(reference)))
    return request_key(request), result


def run(seed: int, seconds: float, trace: bool, size: str, work: Path,
        out) -> Outcome:
    spec = SIZES[size]
    root = Path(__file__).resolve().parent.parent
    schedule = Schedule(seed, spec, int(seconds * spec["max_rate"]) + 100)
    outcome = Outcome()

    # Warm-up: one untimed set-up, then the timed ones; the last server
    # stays up for the measurement.
    set_up(root, work, schedule, 0).stop()
    setup_s: list[float] = []
    server = None
    for index in range(1, SETUP_REPEATS + 1):
        if server is not None:
            server.stop()
        server, seconds_at_reference, _ = gauged(set_up, root, work, schedule, index)
        setup_s.append(seconds_at_reference)
    try:
        responses = drive(server.port, schedule, seconds)
        stats = json.loads(get(server.port, "/v1/stats")[1])
    finally:
        server_rss_mb = server.stop()
    if len(responses) == len(schedule.bodies):
        print("warning: the request schedule ran out before the time did",
              file=sys.stderr)

    expected: dict[int, tuple[str, dict]] = {}
    hit_ms: list[float] = []
    miss_ms: list[float] = []
    raw_hit_ms: list[float] = []
    served: dict[str, dict] = {}
    for index, status, body, elapsed_ms, raw_ms in responses:
        outcome.attempted += 1
        payload = schedule.payloads[index]
        key = id(payload)
        if key not in expected:
            expected[key] = expected_result(payload)
        want_key, want_result = expected[key]
        response = json.loads(body) if status == 200 else {}
        ok = outcome.check(status == 200, f"request {index}: HTTP {status}")
        ok = ok and outcome.check(
            response.get("schema") == RESPONSE_SCHEMA
            and response.get("key") == want_key
            and response.get("result") == want_result,
            f"request {index}: body differs from the reference backend's",
        )
        ok = ok and outcome.check(
            response.get("cached") == schedule.planned_hit[index],
            f"request {index}: expected a cache "
            f"{'hit' if schedule.planned_hit[index] else 'miss'}",
        )
        if not ok:
            outcome.failed += 1
            continue
        served[want_key] = response["result"]
        (hit_ms if response["cached"] else miss_ms).append(elapsed_ms)
        if response["cached"]:
            raw_hit_ms.append(raw_ms)
    outcome.check(
        digest(served) == digest({k: r for k, r in expected.values()}),
        "response digest differs from the expected one",
    )

    outcome.metrics = {
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (server_rss_mb, "MiB"),
        "ok_share": ((outcome.attempted - outcome.failed) / outcome.attempted, "ratio"),
        "throughput_per_s": (
            len(responses) * 1e3 / sum(r[3] for r in responses), "1/s"),
        "hit_p50_ms": (median(hit_ms), "ms"),
        "hit_p90_ms": (p90(hit_ms, "hit_p90_ms"), "ms"),
        "miss_p50_ms": (median(miss_ms), "ms"),
        "miss_p90_ms": (p90(miss_ms, "miss_p90_ms"), "ms"),
    }
    print(
        f"serve-mixed: {len(responses)} requests over one connection, "
        f"{sum(r[4] for r in responses) / 1e3:.1f} s in requests; "
        f"{len(hit_ms)} hits, {len(miss_ms)} misses; raw hit p50 "
        f"{median(raw_hit_ms):.3f} ms, at reference speed {median(hit_ms):.3f} ms; "
        f"server counts {stats['counts']}",
        file=out,
    )
    if trace:
        sent = [index for index, *_ in sorted(responses)][: spec["replay"]]
        outcome.metrics = traced_metrics(
            schedule, sent, expected, raw_hit_ms, stats, work, outcome, out
        )
    return outcome


def traced_metrics(schedule, sent, expected, raw_hit_ms, stats, work: Path,
                   outcome: Outcome, out) -> dict:
    """Replays the first requests sent through the service's own steps
    (``parse_request``, ``request_key``, ``ResponseCache``,
    ``execute_request``, encoding) in process, on a cache that holds
    the hit set, as the live server's did.  Per-layer times are raw, so
    ``raw_hit_ms`` are the live hit latencies before gauge scaling."""
    counter = iter(range(10**6))

    def traced_pass(recorder):
        cache = ResponseCache(work / f"replay-{next(counter)}")
        for payload in schedule.hit_set:
            key, result = expected[id(payload)]
            cache.store(key, request_identity(parse_request(payload)), result)
        results = {}
        with recorder.span("serve-mixed"):
            for index in sent:
                with recorder.span("serve.handle"):
                    with recorder.span("serve.parse"):
                        request = parse_request(json.loads(schedule.bodies[index]))
                    with recorder.span("serve.key"):
                        key = request_key(request)
                    with recorder.span("serve.cache_read"):
                        result = cache.load(key)
                    cached = result is not None
                    if not cached:
                        with recorder.span("serve.compute"):
                            result = execute_request(request)
                        with recorder.span("serve.cache_write"):
                            cache.store(key, request_identity(request), result)
                    with recorder.span("serve.encode"):
                        json.dumps(
                            {"schema": RESPONSE_SCHEMA, "key": key,
                             "cached": cached, "result": result},
                            sort_keys=True,
                        ).encode("utf-8")
                results[key] = json.loads(json.dumps(result))
        shutil.rmtree(cache.root, ignore_errors=True)
        return results

    results, recorder, overhead = run_traced(traced_pass)
    outcome.check(
        digest(results)
        == digest({expected[id(schedule.payloads[i])][0]:
                   expected[id(schedule.payloads[i])][1] for i in sent}),
        "traced replay: results differ from the live responses",
    )
    recorder.write_jsonl(work / "spans-serve-mixed.jsonl")
    handles = [span for span in recorder.spans if span.name == "serve.handle"]
    hit_handles = [
        span.duration * 1e3
        for span in handles
        if not any(s.parent == span.id and s.name == "serve.compute"
                   for s in recorder.spans)
    ]
    replayed = [schedule.payloads[i] for i in sent]
    print("per-layer breakdown (serve steps replayed in process from the "
          "requests sent; transport = live hit p50 - replayed hit handle p50):",
          file=out)
    counts = stats["counts"]
    return layer_metrics(
        recorder,
        counts={
            "etc.instances": sum(
                p["ensemble"]["instances"] if p["kind"] == "study" else 1
                for p in replayed
            ),
            "serve.transport_ms": median(raw_hit_ms) - median(hit_handles),
            "serve.hit_ratio": counts["cache_hits"] / counts["requests"],
            "serve.shed": counts["shed"],
        },
        overhead=overhead,
        out=out,
    )
