"""One command for the benchmark of the three user paths.

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program under test is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 1`` the metrics are the per-layer ones of an extra traced
pass.  Scratch files live under ``.perfbench/`` in the checkout.  The
exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid-cold", "rolling-faults", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"error: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    if args.workload == "grid-cold":
        from perfbench import grid_cold as workload
    elif args.workload == "rolling-faults":
        from perfbench import rolling_faults as workload
    else:
        from perfbench import serve_mixed as workload

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        outcome = workload.run(
            args.seed, args.seconds, bool(args.trace), args.size, work, sys.stdout
        )
        for span_file in work.glob("spans-*.jsonl"):
            shutil.move(str(span_file), base / f"{span_file.stem}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in outcome.checks:
        print(f"check failed: {message}", file=sys.stderr)
    print(outcome.to_json(), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
