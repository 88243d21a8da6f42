"""Per-layer metrics from one traced pass.

Span names are ``<layer>.<operation>`` with the layer named after the
``repro`` subpackage whose public functions the span wraps.  Spans under
a ``replay`` span re-run recorded inputs through an inner layer that the
live call path does not expose; the printed table marks them.
"""

from __future__ import annotations

import sys
import time

from perfbench.common import PER_LAYER_UNITS, median
from perfbench.spans import (
    NullRecorder,
    SpanRecorder,
    breakdown,
    by_name,
    format_breakdown,
    self_times,
)


def run_traced(pass_fn):
    """Run ``pass_fn(recorder)`` untraced, then traced.

    Returns ``(traced_result, recorder, overhead)`` where ``overhead`` is
    the traced wall time over the untraced wall time of the same pass.
    """
    started = time.perf_counter()
    pass_fn(NullRecorder())
    untraced_s = time.perf_counter() - started
    recorder = SpanRecorder()
    started = time.perf_counter()
    result = pass_fn(recorder)
    traced_s = time.perf_counter() - started
    return result, recorder, traced_s / untraced_s


def layer_metrics(recorder, *, counts: dict, overhead: float,
                  out=sys.stdout) -> dict[str, tuple[float, str]]:
    """Every per-layer metric (0 for layers the pass did not touch);
    prints the breakdown table to ``out``."""
    spans = recorder.spans
    root_s, unattributed_s, rows = breakdown(spans)
    selfs = self_times(spans)
    replayed = {
        span.name: "replay" for span in spans if _under(span, "replay", spans)
    }
    for span in spans:
        if span.name in replayed and not _under(span, "replay", spans):
            replayed[span.name] = "live + replay"
    print(format_breakdown(root_s, unattributed_s, rows, replayed), file=out)
    closure = sum(row.self_s for row in rows) + unattributed_s - root_s
    print(f"self times + unattributed - root = {closure:+.2e} s", file=out)

    def total(name):
        return sum(span.duration for span in by_name(spans, name))

    def self_s(name):
        return sum(selfs[span.id] for span in by_name(spans, name))

    def median_ms(name):
        durations = [span.duration * 1e3 for span in by_name(spans, name)]
        return median(durations) if durations else 0.0

    values = {name: 0.0 for name in PER_LAYER_UNITS}
    values.update(
        {
            "etc.generate_s": total("etc.generate"),
            "etc.store_publish_s": total("etc.store_publish"),
            "heuristics.map_calls": len(by_name(spans, "heuristics.map")),
            "heuristics.map_self_s": self_s("heuristics.map"),
            "heuristics.map_p50_ms": median_ms("heuristics.map"),
            "core.driver_self_s": self_s("core.iterate"),
            "analysis.cells": len(by_name(spans, "analysis.experiment")),
            "analysis.cell_s": total("analysis.experiment"),
            "analysis.runner_self_s": self_s("analysis.runner"),
            "analysis.experiment_self_s": self_s("analysis.experiment"),
            "sim.self_s": self_s("sim.run"),
            "serve.parse_ms": median_ms("serve.parse"),
            "serve.key_ms": median_ms("serve.key"),
            "serve.cache_read_ms": median_ms("serve.cache_read"),
            "serve.cache_write_ms": median_ms("serve.cache_write"),
            "serve.compute_ms": median_ms("serve.compute"),
            "serve.encode_ms": median_ms("serve.encode"),
            "serve.handle_ms": median_ms("serve.handle"),
            "obs.trace_overhead": overhead,
            "obs.root_s": root_s,
            "obs.unattributed_s": unattributed_s,
        }
    )
    values.update(counts)
    return {name: (float(values[name]), PER_LAYER_UNITS[name]) for name in PER_LAYER_UNITS}


def _under(span, ancestor: str, spans) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False
