"""Property tests for the observability subsystem (hypothesis).

The contract under test is the ISSUE's headline guarantee: tracing is
*pure observation*.  Enabling a collector must not change a single
mapping decision, and the counters a run produces must be derivable
from (and therefore consistent with) its event stream — whether the run
was serial or merged across worker processes.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentConfig, run_experiment
from repro.analysis.runner import run_grid
from repro.core.iterative import IterativeScheduler
from repro.core.ties import DeterministicTieBreaker, RandomTieBreaker
from repro.etc.generation import Consistency, Heterogeneity
from repro.etc.matrix import ETCMatrix
from repro.heuristics import get_heuristic
from repro.obs import (
    CollectingTracer,
    ProgressReporter,
    event_to_dict,
    records_to_snapshot,
    snapshot_to_jsonl,
    use_tracer,
)

pytestmark = pytest.mark.obs

TRACED_NAMES = [
    "min-min",
    "max-min",
    "mct",
    "met",
    "sufferage",
    "k-percent-best",
    "switching-algorithm",
]


@st.composite
def etc_matrices(draw, min_tasks=1, max_tasks=8, min_machines=2, max_machines=4):
    num_tasks = draw(st.integers(min_tasks, max_tasks))
    num_machines = draw(st.integers(min_machines, max_machines))
    values = draw(
        st.lists(
            st.lists(
                st.floats(0.5, 50.0, allow_nan=False, allow_infinity=False),
                min_size=num_machines,
                max_size=num_machines,
            ),
            min_size=num_tasks,
            max_size=num_tasks,
        )
    )
    return ETCMatrix(values)


def _iterative_result(etc, name, tie_breaker):
    return IterativeScheduler(
        get_heuristic(name), tie_breaker=tie_breaker
    ).run(etc)


def _result_fingerprint(result):
    return (
        tuple(rec.mapping.to_dict().items() for rec in result.iterations),
        result.makespans(),
        result.removal_order,
        tuple(sorted(result.final_finish_times.items())),
    )


@pytest.mark.parametrize("name", TRACED_NAMES)
@given(etc=etc_matrices())
@settings(max_examples=15, deadline=None)
def test_tracing_does_not_change_decisions(name, etc):
    """Enabled vs disabled tracing: bit-identical iterative runs."""
    untraced = _iterative_result(etc, name, DeterministicTieBreaker())
    with use_tracer(CollectingTracer()):
        traced = _iterative_result(etc, name, DeterministicTieBreaker())
    assert _result_fingerprint(traced) == _result_fingerprint(untraced)


@given(etc=etc_matrices(), seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_tracing_does_not_consume_randomness(etc, seed):
    """Same-seed random tie-breaking is unaffected by the collector —
    the instrumentation never draws from (or reorders draws of) the
    tie-breaker's RNG stream."""
    untraced = _iterative_result(etc, "min-min", RandomTieBreaker(seed))
    with use_tracer(CollectingTracer()):
        traced = _iterative_result(etc, "min-min", RandomTieBreaker(seed))
    assert _result_fingerprint(traced) == _result_fingerprint(untraced)


@pytest.mark.parametrize("name", TRACED_NAMES)
@given(etc=etc_matrices())
@settings(max_examples=15, deadline=None)
def test_counters_consistent_with_events(name, etc):
    """`decisions` equals the `.decision` event count; every
    `events.<kind>` counter equals the number of events of that kind."""
    with use_tracer(CollectingTracer()) as tracer:
        _iterative_result(etc, name, DeterministicTieBreaker())
    decision_events = [e for e in tracer.events if e.kind.endswith(".decision")]
    assert tracer.counters.get("decisions") == len(decision_events)
    assert len(decision_events) > 0
    kinds = {e.kind for e in tracer.events}
    for kind in kinds:
        assert tracer.counters.get(f"events.{kind}") == len(tracer.events_of(kind))
    assert tracer.counters.total("events.") == len(tracer.events)
    # every decision also landed in its per-kind event counter
    assert tracer.counters.get("iterations") == len(
        tracer.events_of("iterative.freeze")
    )


@pytest.fixture(scope="module")
def grid_config():
    return ExperimentConfig(
        heuristics=("mct", "switching-algorithm"),
        num_tasks=8,
        num_machines=3,
        heterogeneities=(Heterogeneity.HIHI, Heterogeneity.LOLO),
        consistencies=(Consistency.INCONSISTENT,),
        instances_per_cell=2,
        seed=7,
    )


class TestParallelMerge:
    """Worker-collected snapshots merge to the serial aggregates."""

    def _serial(self, config):
        with use_tracer(CollectingTracer()) as tracer:
            records = run_experiment(config)
        return records, tracer

    def _parallel(self, config, max_workers=2):
        with use_tracer(CollectingTracer()) as tracer:
            records = run_grid(config, max_workers=max_workers).records
        return records, tracer

    def test_merged_counters_equal_serial(self, grid_config):
        _, serial = self._serial(grid_config)
        _, parallel = self._parallel(grid_config)
        assert parallel.counters == serial.counters
        assert parallel.counters.get("experiment.runs") == 2 * 2 * 2

    def test_merged_event_stream_equals_serial(self, grid_config):
        serial_records, serial = self._serial(grid_config)
        parallel_records, parallel = self._parallel(grid_config)
        assert [r.comparison for r in parallel_records] == [
            r.comparison for r in serial_records
        ]
        # compare via the export form: NaN fields (e.g. undefined BI)
        # are identical-but-not-equal across the pickle boundary
        assert [event_to_dict(e) for e in parallel.events] == [
            event_to_dict(e) for e in serial.events
        ]

    def test_disabled_tracer_takes_untraced_path(self, grid_config):
        records = run_grid(grid_config, max_workers=2).records
        serial_records, _ = self._serial(grid_config)
        assert [r.comparison for r in records] == [
            r.comparison for r in serial_records
        ]

    def test_merged_histograms_equal_serial(self, grid_config):
        """Deterministic histograms merge byte-identically; wall-clock
        ``*_s`` histograms merge structurally (same buckets, same total
        observation count — the per-bucket spread depends on timings)."""
        _, serial = self._serial(grid_config)
        _, parallel = self._parallel(grid_config)
        serial_hists = serial.histograms.as_dict()
        parallel_hists = parallel.histograms.as_dict()
        assert set(parallel_hists) == set(serial_hists)
        assert "decision.tie_candidates" in serial_hists
        assert "experiment.cell_runtime_s" in serial_hists
        for name, stat in serial_hists.items():
            merged = parallel_hists[name]
            if name.endswith("_s"):
                assert merged.buckets == stat.buckets
                assert merged.count == stat.count
            else:
                assert merged == stat  # frozen dataclass: full bit equality

    def test_progress_does_not_perturb_trace(self, grid_config):
        """The acceptance property: a sweep under a live progress
        reporter yields an event stream and merged histograms
        byte-identical to the serial run without one."""
        _, serial = self._serial(grid_config)
        stream = io.StringIO()
        with use_tracer(CollectingTracer()) as parallel:
            run_grid(
                grid_config,
                max_workers=2,
                progress=ProgressReporter(stream=stream, label="cells"),
            )
        assert stream.getvalue()  # progress actually rendered
        assert [event_to_dict(e) for e in parallel.events] == [
            event_to_dict(e) for e in serial.events
        ]
        deterministic = {
            name: stat
            for name, stat in parallel.histograms.as_dict().items()
            if not name.endswith("_s")
        }
        assert deterministic == {
            name: stat
            for name, stat in serial.histograms.as_dict().items()
            if not name.endswith("_s")
        }


# ---------------------------------------------------------------------------
# Span trees: serial and pooled runs agree modulo wall-clock
# ---------------------------------------------------------------------------


@given(
    max_workers=st.integers(2, 3),
    seed=st.integers(0, 2**8),
)
@settings(max_examples=4, deadline=None)
def test_serial_and_sharded_span_trees_have_equal_shape(
    tmp_path_factory, max_workers, seed
):
    """The merged span tree of a pooled cached run has exactly the
    structure (kinds, fields, nesting, order) of the serial run over
    the same config — only ids and wall-clock values may differ."""
    from repro.obs import tree_shape

    config = ExperimentConfig(
        heuristics=("mct",),
        num_tasks=6,
        num_machines=3,
        heterogeneities=(Heterogeneity.HIHI, Heterogeneity.LOLO),
        consistencies=(Consistency.INCONSISTENT,),
        instances_per_cell=1,
        seed=seed,
    )
    base = tmp_path_factory.mktemp("span-trees")
    with use_tracer(CollectingTracer()) as serial:
        run_grid(config, cache_dir=base / f"serial-{seed}", max_workers=1)
    with use_tracer(CollectingTracer()) as pooled:
        run_grid(
            config,
            cache_dir=base / f"pooled-{seed}-{max_workers}",
            max_workers=max_workers,
        )
    assert serial.trace_id != pooled.trace_id
    assert tree_shape(pooled.spans) == tree_shape(serial.spans)


# ---------------------------------------------------------------------------
# JSONL round-trip: export -> parse -> records_to_snapshot is the identity
# ---------------------------------------------------------------------------

_NAMES = st.text("abcdefgh._", min_size=1, max_size=12)
_FINITE = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
_BUCKET_BOUNDS = st.lists(
    st.floats(0.1, 1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
    unique=True,
).map(lambda bounds: tuple(sorted(bounds)))


@st.composite
def collected_tracers(draw):
    """A CollectingTracer exercised with random metric traffic."""
    tracer = CollectingTracer()
    for kind in draw(st.lists(_NAMES, max_size=5)):
        tracer.event(kind, value=draw(_FINITE))
    for name in draw(st.lists(_NAMES, max_size=5)):
        tracer.count(name, draw(st.integers(0, 1000)))
    for name in draw(st.lists(_NAMES, max_size=4, unique=True)):
        buckets = draw(_BUCKET_BOUNDS)
        for value in draw(st.lists(_FINITE, min_size=1, max_size=6)):
            tracer.observe(name, value, buckets=buckets)
    return tracer


@given(tracer=collected_tracers())
@settings(max_examples=50, deadline=None)
def test_jsonl_roundtrip_is_identity(tracer):
    """Parsing an export back recovers every metric aggregate exactly:
    counters and histograms (bucket bounds, per-bucket counts,
    sum/min/max), plus the event stream in sequence order."""
    original = tracer.snapshot()
    text = snapshot_to_jsonl(original)
    records = [json.loads(line) for line in text.splitlines()]
    recovered = records_to_snapshot(records)
    assert recovered.counters == original.counters
    assert recovered.histograms == original.histograms
    assert [event_to_dict(e) for e in recovered.events] == [
        event_to_dict(e) for e in original.events
    ]


@given(tracer=collected_tracers())
@settings(max_examples=25, deadline=None)
def test_jsonl_reexport_is_byte_stable(tracer):
    """Export -> import -> export reproduces the original bytes."""
    text = snapshot_to_jsonl(tracer.snapshot())
    records = [json.loads(line) for line in text.splitlines()]
    assert snapshot_to_jsonl(records_to_snapshot(records)) == text


@given(
    values=st.lists(
        st.integers(-1000, 1000).map(float), min_size=1, max_size=20
    ),
    split=st.integers(0, 20),
    buckets=_BUCKET_BOUNDS,
)
@settings(max_examples=50, deadline=None)
def test_histogram_merge_is_partition_independent(values, split, buckets):
    """Observing a value list serially or split across two tracers and
    merging yields the same HistogramStat — the property that makes
    worker merges trustworthy.

    Integer-valued observations only: float ``sum`` accumulation is not
    associative, which is exactly why the deterministic-merge contract
    covers the integer-valued decision histograms and treats wall-clock
    ``*_s`` histograms structurally instead.
    """
    split = min(split, len(values))
    serial = CollectingTracer()
    for value in values:
        serial.observe("h", value, buckets=buckets)
    left, right = CollectingTracer(), CollectingTracer()
    for value in values[:split]:
        left.observe("h", value, buckets=buckets)
    for value in values[split:]:
        right.observe("h", value, buckets=buckets)
    left.merge_snapshot(right.snapshot())
    assert left.histograms.get("h") == serial.histograms.get("h")
