"""The kernel-backend registry and its construction semantics."""

import pytest

from repro.analysis.experiments import ExperimentConfig
from repro.analysis.runner import cell_key
from repro.etc.matrix import ETCMatrix
from repro.exceptions import UnknownBackendError
from repro.heuristics.backends import (
    DEFAULT_BACKEND,
    REFERENCE_HEURISTICS,
    IncrementalBackend,
    KernelBackend,
    ReferenceBackend,
    _BACKENDS,
    backend_names,
    get_backend,
    register_backend,
)
from repro.heuristics.base import get_heuristic, heuristic_names
from repro.heuristics.kpb import KPercentBest, ReferenceKPercentBest
from repro.heuristics.mct import ReferenceMCT
from repro.heuristics.met import ReferenceMET
from repro.heuristics.minmin import (
    MinMin,
    ReferenceDuplex,
    ReferenceMaxMin,
    ReferenceMinMin,
)
from repro.heuristics.olb import OLB
from repro.heuristics.sufferage import ReferenceSufferage
from repro.serve.models import parse_request, request_key

#: The heuristics with a separate paper-transcription oracle.
KERNELED = {
    "min-min": ReferenceMinMin,
    "max-min": ReferenceMaxMin,
    "duplex": ReferenceDuplex,
    "mct": ReferenceMCT,
    "met": ReferenceMET,
    "k-percent-best": ReferenceKPercentBest,
    "sufferage": ReferenceSufferage,
}

ETC = ETCMatrix(
    [[1.0, 4.0, 2.0], [3.0, 2.0, 2.0], [2.0, 2.0, 5.0], [1.0, 6.0, 3.0]]
)


class TestRegistry:
    def test_default_backends_registered(self):
        assert backend_names() == ("batched", "incremental", "reference")

    def test_default_backend_name_is_registered(self):
        assert DEFAULT_BACKEND in backend_names()

    def test_get_backend_resolves_each_name(self):
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("incremental"), IncrementalBackend)
        assert get_backend("batched") is get_backend("incremental")

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(UnknownBackendError, match="compiled"):
            get_backend("compiled")
        with pytest.raises(UnknownBackendError, match="batched, incremental"):
            get_backend("nope")

    def test_unknown_backend_error_is_key_error(self):
        # KeyError ancestry so dict-style callers can catch it idiomatically.
        with pytest.raises(KeyError):
            get_backend("nope")

    def test_backend_instances_pass_through(self):
        backend = get_backend("reference")
        assert get_backend(backend) is backend

    def test_register_backend_requires_name(self):
        class Nameless(IncrementalBackend):
            name = ""

        with pytest.raises(UnknownBackendError):
            register_backend(Nameless())

    def test_register_backend_latest_wins(self):
        class Custom(IncrementalBackend):
            name = "custom-test-backend"

        try:
            first, second = Custom(), Custom()
            assert register_backend(first) is first
            register_backend(second)
            assert get_backend("custom-test-backend") is second
            assert "custom-test-backend" in backend_names()
        finally:
            _BACKENDS.pop("custom-test-backend", None)

    def test_repr_names_the_backend(self):
        assert "reference" in repr(get_backend("reference"))


class TestMake:
    def test_reference_forces_reference_kernels(self):
        heuristic = get_backend("reference").make("min-min")
        assert type(heuristic) is ReferenceMinMin
        assert isinstance(heuristic, MinMin)
        assert heuristic.name == "min-min"

    def test_incremental_keeps_registry_defaults(self):
        assert type(get_backend("incremental").make("min-min")) is MinMin
        assert type(get_backend("batched").make("min-min")) is MinMin

    def test_make_forwards_kwargs(self):
        heuristic = get_backend("incremental").make("k-percent-best", percent=30.0)
        assert isinstance(heuristic, KPercentBest)
        assert heuristic.percent == 30.0

    def test_reference_make_skips_flag_for_unkerneled_heuristics(self):
        # OLB has a single implementation, so the reference backend
        # builds the registered heuristic.
        assert "olb" not in REFERENCE_HEURISTICS
        assert type(get_backend("reference").make("olb")) is OLB

    def test_kernel_backend_is_abstract(self):
        with pytest.raises(TypeError):
            KernelBackend()


class TestReferenceHeuristics:
    def test_table_covers_exactly_the_kerneled_heuristics(self):
        assert REFERENCE_HEURISTICS == KERNELED

    def test_reference_classes_stay_out_of_the_registry(self):
        names = heuristic_names()
        for name, cls in KERNELED.items():
            assert name in names
            assert type(get_heuristic(name)) is not cls

    @pytest.mark.parametrize("name", sorted(KERNELED))
    def test_reference_backend_builds_the_reference_subclass(self, name):
        heuristic = get_backend("reference").make(name)
        assert type(heuristic) is KERNELED[name]
        assert isinstance(heuristic, type(get_heuristic(name)))
        assert heuristic.name == name

    def test_reference_accepts_the_heuristic_kwargs(self):
        heuristic = get_backend("reference").make("k-percent-best", percent=30.0)
        assert type(heuristic) is ReferenceKPercentBest
        assert heuristic.percent == 30.0

    @pytest.mark.parametrize("backend", ["reference", "incremental", "batched"])
    @pytest.mark.parametrize("name", sorted(KERNELED))
    def test_incremental_kwarg_rejected(self, backend, name):
        # The per-heuristic kernel toggle is gone: backends choose kernels.
        with pytest.raises(TypeError):
            get_backend(backend).make(name, **{"incremental": False})

    @pytest.mark.parametrize("name", sorted(KERNELED))
    def test_batched_alias_maps_like_incremental(self, name):
        def tuples(backend):
            mapping = get_backend(backend).make(name).map_tasks(ETC)
            return [(a.task, a.machine, a.completion) for a in mapping.assignments]

        assert tuples("batched") == tuples("incremental") == tuples("reference")


class TestBatchedAliasKeys:
    """Configs naming the retired ``batched`` backend stay valid: the
    runner keeps their cell keys, and serve keys them as ``incremental``."""

    def test_serve_request_key_matches_incremental(self):
        payload = {
            "kind": "iterate",
            "heuristic": "min-min",
            "backend": "batched",
            "etc": {"values": [[1.0, 2.0], [3.0, 1.5]]},
        }
        request = parse_request(payload)
        assert request.backend == "batched"
        assert request_key(request) == request_key(
            parse_request({**payload, "backend": "incremental"})
        )
        assert request_key(request) == (
            "03940f47c294fd9361a0017d64bbfeeaf2ab08dc5bd727d35ee285718cefd856"
        )

    def test_cell_key_unchanged(self):
        config = ExperimentConfig(
            heuristics=("min-min",),
            num_tasks=4,
            num_machines=2,
            instances_per_cell=1,
            seed=1,
            backend="batched",
        )
        assert cell_key(config) == (
            "fe6e59e8474b87d3003a48bb45569c451478851b738617bcd0f315518810a379"
        )
