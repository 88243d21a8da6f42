"""A kernel-independent oracle: Max-Min is LPT on identical machines.

When every machine runs every task equally fast (each ETC row constant),
a task's minimum completion time is its processing time plus the
smallest ready time, so Max-Min always commits the longest remaining
task to the least-loaded machine — Graham's Longest Processing Time
rule (Ravi, Tunçel and Huang, arXiv 1312.3345).  Graham's bound then
caps its makespan at ``(4/3 - 1/(3m)) * OPT``.  OPT comes from the
exact branch-and-bound solver, which shares no code with the greedy
kernels, so this guards every Max-Min backend against one fixed
standard rather than against each other.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.etc.matrix import ETCMatrix
from repro.heuristics.backends import DEFAULT_BACKEND, get_backend
from repro.heuristics.optimal import BranchAndBound


@st.composite
def identical_machine_etcs(draw):
    num_tasks = draw(st.integers(1, 8))
    num_machines = draw(st.integers(1, 4))
    if draw(st.booleans()):
        # Integer times: equal task lengths (LPT ties) are common.
        cell = st.integers(1, 6).map(float)
    else:
        cell = st.floats(0.5, 50.0, allow_nan=False, allow_infinity=False)
    times = draw(st.lists(cell, min_size=num_tasks, max_size=num_tasks))
    return ETCMatrix([[t] * num_machines for t in times])


@pytest.mark.parametrize("backend", sorted({"reference", DEFAULT_BACKEND}))
@given(etc=identical_machine_etcs())
@settings(max_examples=40, deadline=None)
def test_maxmin_within_graham_lpt_bound(backend, etc):
    exact = BranchAndBound()
    optimum = exact.map_tasks(etc).makespan()
    assert exact.proven_optimal
    m = etc.num_machines
    bound = (4.0 / 3.0 - 1.0 / (3.0 * m)) * optimum
    makespan = get_backend(backend).make("max-min").map_tasks(etc).makespan()
    # Max-Min may pick a task within the 1e-9 relative tie tolerance of
    # the longest one, so allow that much slack on the bound.
    assert makespan <= bound * (1.0 + 1e-9)
