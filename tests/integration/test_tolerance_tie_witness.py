"""The invariance theorems hold for exact ties only (regression witness).

The paper proves that Min-Min, MCT and MET keep their mapping across
iterations when ties are broken deterministically.  The deterministic
rule here treats completion times within ``max(1e-12, 1e-9 * v)`` of
the minimum as tied, and that relation is not transitive.  With
``d = 1e-9`` the row ``[1 + 1.5d, 1 + 0.9d, 1]`` ties ``m1`` and ``m2``
with each other but not ``m0`` with ``m2``: t1 takes ``m2`` (ETC 50),
so t0's CTs become ``[1 + 1.5d, 1 + 0.9d, 51]`` and it goes to ``m1``.
Freezing the makespan machine ``m2`` moves the tie anchor to
``1 + 0.9d``, which now ties ``m0``, and iteration 1 maps t0 to ``m0``.
"""

import pytest

from repro.analysis.invariance import verify_invariance
from repro.core.iterative import IterativeScheduler
from repro.etc.matrix import ETCMatrix
from repro.heuristics.backends import get_backend

D = 1e-9


@pytest.fixture
def witness():
    return ETCMatrix([[1 + 1.5 * D, 1 + 0.9 * D, 1.0], [100.0, 100.0, 50.0]])


def _mapping(record):
    return {a.task: a.machine for a in record.mapping.assignments}


@pytest.mark.parametrize("backend", ["reference", "incremental"])
@pytest.mark.parametrize("name", ["min-min", "mct", "met"])
class TestToleranceTieWitness:
    def test_original_mapping(self, witness, name, backend):
        result = IterativeScheduler(get_backend(backend).make(name)).run(witness)
        assert _mapping(result.original) == {"t0": "m1", "t1": "m2"}
        assert result.original.frozen_machine == "m2"

    def test_iteration_one_moves_t0(self, witness, name, backend):
        result = IterativeScheduler(get_backend(backend).make(name)).run(witness)
        assert _mapping(result.iterations[1]) == {"t0": "m0"}
        assert result.mapping_changed()

    def test_verify_invariance_reports_the_change(self, witness, name, backend):
        report = verify_invariance(
            get_backend(backend).make(name), instances=[witness]
        )
        assert report.instances_checked == 1
        assert report.mapping_changes == 1
        assert not report.invariant
