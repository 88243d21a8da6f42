#!/usr/bin/env python
"""End-to-end smoke of the scheduling service (`make smoke-serve`).

Two sessions against real ``repro serve`` subprocesses:

1. **Cache/trace/ledger session** — start a traced service on an
   ephemeral port, issue one map request and then the *identical*
   request twice more, and assert the repeats are served from the
   content-addressed response cache: ``cached: true`` in the response,
   the ``serve.cache_hits`` counter incremented in ``/v1/stats``, no
   ``fast_hits`` (tracing bypasses the raw-body hit index), and —
   after a clean SIGTERM shutdown — exactly one ``serve.compute`` span
   in the exported trace against three ``serve.request`` spans for the
   schedule posts (no recomputation happened), plus one ``serve``
   record in the run ledger.  A malformed request must come back as a
   400 ``validation`` error without disturbing any of that.

2. **Load session** — start a fresh untraced service, post one map
   request three times and assert the third answer (served from the
   raw-body hit index, ``fast_hits >= 1``) is byte-identical to the
   second; post the same instance as CSV and assert it is answered
   from the entry the JSON ``values`` form filled (``cached: true``,
   same key); post one tie-rich 2-decimal 24×6 ``/v1/iterate`` Min-Min
   instance with ``"backend": "incremental"`` (its certified iterations
   are derived from the original mapping) and with ``"backend":
   "reference"`` (the full remap loop), which key apart, and assert the
   two ``result`` objects are equal; post one 12×5 ``/v1/iterate``
   Sufferage instance with ``"seeded": true`` and assert its makespans
   never grow and that its removal order, makespans and final mapping
   equal an in-process ``SeededIterativeScheduler`` run on the same
   matrix; then drive the
   ``repro serve-load`` CLI against it, writing the
   ``repro-serve-load/1`` report (default ``SERVE_load_smoke.json``,
   published as a CI artifact) and printing the requests/s headline.

Needs only the standard library and the package itself (imported from
``src/`` for the in-process seeded run); exits non-zero on the first
failed assertion.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from urllib.error import HTTPError
from urllib.request import Request, urlopen
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LOAD_REPORT = sys.argv[1] if len(sys.argv) > 1 else "SERVE_load_smoke.json"

MAP_PAYLOAD = {
    "kind": "map",
    "etc": {"values": [[4, 5, 5], [6, 2, 2], [5, 6, 3], [4, 1, 3]]},
    "heuristic": "min-min",
}

#: ``MAP_PAYLOAD``'s instance in the CSV wire form.
CSV_PAYLOAD = {
    **MAP_PAYLOAD,
    "etc": {"csv": "task,m0,m1,m2\n" + "\n".join(
        f"t{i}," + ",".join(str(v) for v in row)
        for i, row in enumerate(MAP_PAYLOAD["etc"]["values"])
    )},
}


#: A 24×6 instance of 2-decimal values in [1, 2]: exact and
#: rounding-level ties in almost every Min-Min decision window.
_TIES = random.Random(0)
TIE_RICH_ITERATE = {
    "kind": "iterate",
    "heuristic": "min-min",
    "etc": {"values": [
        [round(_TIES.uniform(1.0, 2.0), 2) for _ in range(6)] for _ in range(24)
    ]},
}


#: A 12×5 2-decimal instance on which unseeded Sufferage's makespan
#: grows from the original mapping to the first iterative one, so the
#: seeded scheduler's incumbent decides iterations.
_SEEDED = random.Random(50)
SEEDED_ITERATE = {
    "kind": "iterate",
    "heuristic": "sufferage",
    "seeded": True,
    "etc": {"values": [
        [round(_SEEDED.uniform(1.0, 100.0), 2) for _ in range(5)] for _ in range(12)
    ]},
}


def seeded_in_process() -> dict:
    """``SeededIterativeScheduler(Sufferage)`` on ``SEEDED_ITERATE``'s
    matrix, in this process, projected like the service's answer."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.core.seeding import SeededIterativeScheduler
    from repro.etc.matrix import ETCMatrix
    from repro.heuristics.backends import get_backend

    etc = ETCMatrix(SEEDED_ITERATE["etc"]["values"])
    result = SeededIterativeScheduler(
        get_backend("incremental").make("sufferage")
    ).run(etc)
    final = result.final_mapping()
    return {
        "removal_order": list(result.removal_order),
        "makespans": list(result.makespans()),
        "final_mapping": {task: final.machine_of(task) for task in etc.tasks},
    }


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: {message}")


def start_serve(extra_args: list[str]) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("serving on http://"):
        proc.kill()
        print(f"FAIL: unexpected serve banner {line!r}", file=sys.stderr)
        print(proc.stderr.read(), file=sys.stderr)
        raise SystemExit(1)
    return proc, int(line.rsplit(":", 1)[1])


def post_raw(port: int, path: str, payload: dict) -> tuple[int, bytes]:
    request = Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except HTTPError as exc:
        return exc.code, exc.read()


def post(port: int, path: str, payload: dict) -> tuple[int, dict]:
    status, body = post_raw(port, path, payload)
    return status, json.loads(body)


def get(port: int, path: str) -> dict:
    with urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=30
    ) as response:
        return json.loads(response.read())


def stop(proc: subprocess.Popen) -> tuple[str, str]:
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=30)
    if proc.returncode != 0:
        print(f"FAIL: serve exited {proc.returncode}\n{err}", file=sys.stderr)
        raise SystemExit(1)
    return out, err


def session_cache_trace_ledger(tmp: Path) -> None:
    ledger = tmp / "ledger.jsonl"
    trace = tmp / "trace.jsonl"
    proc, port = start_serve(
        [
            "--cache-dir", str(tmp / "responses"),
            "--append-ledger", "--ledger", str(ledger),
            "--trace-out", str(trace),
        ]
    )
    try:
        health = get(port, "/healthz")
        check(health["status"] == "ok", "healthz answers ok")

        status, first = post(port, "/v1/map", MAP_PAYLOAD)
        check(status == 200 and first["cached"] is False,
              "first request computed (cached: false)")
        status, second = post(port, "/v1/map", MAP_PAYLOAD)
        check(status == 200 and second["cached"] is True,
              "identical request served from response cache (cached: true)")
        check(first["key"] == second["key"],
              "both responses carry the same content-address key")
        check(first["result"] == second["result"],
              "cached result is byte-identical to the computed one")
        status, third = post(port, "/v1/map", MAP_PAYLOAD)
        check(status == 200 and third == second,
              "second repeat served from the cache as well")

        status, error = post(port, "/v1/schedule", {"kind": "nonsense"})
        check(
            status == 400 and error["error"]["type"] == "validation",
            "malformed request rejected as 400 validation",
        )

        counts = get(port, "/v1/stats")["counts"]
        check(counts["cache_hits"] == 2, "serve.cache_hits counter incremented")
        check(counts["computed"] == 1, "exactly one request computed")
        check(counts["fast_hits"] == 0,
              "traced requests bypass the raw-body hit index")
    finally:
        out, _err = stop(proc)
    check("shutting down" in out, "clean SIGTERM shutdown")

    records = [json.loads(l) for l in ledger.read_text().splitlines()]
    serve_rows = [r for r in records if r["command"] == "serve"]
    check(len(serve_rows) == 1, "one serve record appended to the run ledger")
    metrics = serve_rows[0]["metrics"]
    check(metrics["serve.cache_hits"] == 2, "ledger row records the cache hits")

    spans = [
        json.loads(l)
        for l in trace.read_text().splitlines()
        if '"span"' in l
    ]
    compute = [s for s in spans if s.get("kind") == "serve.compute"]
    requests = [s for s in spans if s.get("kind") == "serve.request"]
    check(
        len(compute) == 1,
        "trace holds one serve.compute span (no recomputation on the hit)",
    )
    check(len(requests) == 4, "trace holds one serve.request span per request")


def session_load(tmp: Path) -> None:
    proc, port = start_serve(["--cache-dir", str(tmp / "load-responses")])
    try:
        answers = [post_raw(port, "/v1/map", MAP_PAYLOAD) for _ in range(3)]
        check(all(status == 200 for status, _ in answers)
              and json.loads(answers[1][1])["cached"] is True,
              "untraced repeat served from the response cache")
        check(answers[2][1] == answers[1][1],
              "third identical post returns the second's bytes")
        check(get(port, "/v1/stats")["counts"]["fast_hits"] >= 1,
              "the raw-body hit index served the third post (fast_hits)")
        status, from_csv = post(port, "/v1/map", CSV_PAYLOAD)
        check(status == 200 and from_csv["cached"] is True
              and from_csv["key"] == json.loads(answers[0][1])["key"],
              "the same instance posted as CSV hits the values entry")
        derived, full = (
            post(port, "/v1/iterate", {**TIE_RICH_ITERATE, "backend": backend})
            for backend in ("incremental", "reference")
        )
        check(derived[0] == full[0] == 200
              and derived[1]["cached"] is full[1]["cached"] is False
              and derived[1]["key"] != full[1]["key"],
              "tie-rich iterate computed once per backend")
        check(derived[1]["result"] == full[1]["result"],
              "derived Min-Min iterations equal the reference full loop")
        status, seeded = post(port, "/v1/iterate", SEEDED_ITERATE)
        spans = seeded["result"]["makespans"] if status == 200 else []
        check(status == 200 and seeded["result"]["seeded"] is True
              and all(b <= a for a, b in zip(spans, spans[1:])),
              "seeded Sufferage iterate answered with non-increasing makespans")
        check({k: seeded["result"][k] for k in
               ("removal_order", "makespans", "final_mapping")}
              == seeded_in_process(),
              "seeded iterate equals an in-process SeededIterativeScheduler run")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve-load",
                "--url", f"http://127.0.0.1:{port}/v1/schedule",
                "-n", "24", "--concurrency", "4",
                "--tasks", "16", "--machines", "4", "--instances", "2",
                "--errors-fatal",
                "-o", LOAD_REPORT,
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
            timeout=120,
        )
        if result.returncode != 0:
            print(f"FAIL: serve-load exited {result.returncode}\n"
                  f"{result.stdout}\n{result.stderr}", file=sys.stderr)
            raise SystemExit(1)
        check("requests/s" in result.stdout, "serve-load prints the "
              "requests/s headline")
        print(result.stdout.rstrip())
        report = json.loads((REPO / LOAD_REPORT).read_text())
        check(report["schema"] == "repro-serve-load/1",
              f"load report written to {LOAD_REPORT}")
        check(report["errors"] == 0 and report["ok"] == 24,
              "all load requests succeeded")
        # The first wave of identical requests can race the initial
        # cache write (at most one miss per client worker); everything
        # after must be a hit.
        check(report["cached"] >= 24 - 4,
              "repeat load traffic served from the response cache")
    finally:
        stop(proc)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-serve-") as tmp:
        session_cache_trace_ledger(Path(tmp))
        session_load(Path(tmp))
    print("smoke-serve: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
