"""Peak-RSS budget of out-of-core ensemble generation.

``generate_ensemble_into`` streams an ensemble into an :class:`ETCStore`
in bounded windows.  The child interpreter below pours an ensemble
sized to exceed ``baseline + payload/2`` into a throwaway store and
must finish under that budget, which a path that materialises the
whole ensemble cannot do.  Each measurement runs in a fresh
interpreter: a forked child would inherit the parent's RSS high-water
mark, so in-process ``ru_maxrss`` cannot see the difference.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parent.parent)

_BASELINE_CHILD = (
    "import json, resource; import numpy; import repro.etc.store; "
    "print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024))"
)

_STREAMED_CHILD = r"""
import json, resource, shutil, sys

root, count, tasks, machines, window = sys.argv[1:6]
from repro.etc.generation import generate_ensemble_into
from repro.etc.store import ETCStore

store = ETCStore(root)
try:
    generate_ensemble_into(
        store, "rss", int(count), int(tasks), int(machines),
        rng=20070612, window=int(window),
    )
finally:
    store.close()
    shutil.rmtree(root, ignore_errors=True)
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024))
"""


def _child_maxrss(*argv: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", *argv],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert out.returncode == 0, out.stderr[-500:]
    return int(json.loads(out.stdout.strip().splitlines()[-1]))


def test_streamed_generation_stays_under_half_the_payload(tmp_path):
    tasks, machines = 256, 32
    instance_bytes = tasks * machines * 8
    baseline = _child_maxrss(_BASELINE_CHILD)
    # The payload exceeds the budget by at least 32 MiB by construction,
    # and the streamed peak (baseline + a few windows' worth of copies)
    # clears the budget with the same margin however large the
    # interpreter baseline is.
    payload = max(128 << 20, 2 * baseline + (64 << 20))
    count = -(-payload // instance_bytes)
    payload = count * instance_bytes
    budget = baseline + payload // 2
    window = max(1, (8 << 20) // instance_bytes)

    maxrss = _child_maxrss(
        _STREAMED_CHILD,
        str(tmp_path / "store"),
        str(count),
        str(tasks),
        str(machines),
        str(window),
    )

    assert maxrss < budget, (
        f"streamed generation peaked at {maxrss >> 20} MiB, over the "
        f"{budget >> 20} MiB budget ({payload >> 20} MiB payload, "
        f"{baseline >> 20} MiB interpreter baseline)"
    )
