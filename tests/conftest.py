"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.etc import (
    ETCMatrix,
    kpb_example_etc,
    mct_met_example_etc,
    minmin_example_etc,
    sufferage_example_etc,
    swa_example_etc,
)

# ----------------------------------------------------------------------
# Hypothesis example budgets.
#
# The default job runs the property batteries with a bounded budget so
# `make test` stays fast; `make test-deep` selects the ``deep`` profile
# via REPRO_HYPOTHESIS_PROFILE for a nightly-style deeper sweep.  Tests
# that want a profile-scaled budget use BATCH_MAX_EXAMPLES in their
# explicit ``@settings`` (explicit settings override the profile).
# ----------------------------------------------------------------------
HYPOTHESIS_PROFILE = os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default")
hypothesis_settings.register_profile("default", deadline=None)
hypothesis_settings.register_profile("deep", deadline=None, max_examples=200)
hypothesis_settings.load_profile(HYPOTHESIS_PROFILE)

#: Per-test example budget for the heavier batteries (each example
#: round-trips a whole ensemble through the ETC store).
BATCH_MAX_EXAMPLES = 60 if HYPOTHESIS_PROFILE == "deep" else 8


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def tiny_etc() -> ETCMatrix:
    """2 tasks x 2 machines with no ties anywhere."""
    return ETCMatrix([[1.0, 4.0], [3.0, 2.0]], tasks=("a", "b"), machines=("x", "y"))


@pytest.fixture
def square_etc() -> ETCMatrix:
    """4x4 with distinct values; default labels t0..t3 / m0..m3."""
    return ETCMatrix(
        [
            [1.0, 2.0, 3.0, 4.0],
            [8.0, 7.0, 6.0, 5.0],
            [9.0, 12.0, 10.0, 11.0],
            [16.0, 13.0, 15.0, 14.0],
        ]
    )


@pytest.fixture
def minmin_etc() -> ETCMatrix:
    return minmin_example_etc()


@pytest.fixture
def mct_met_etc() -> ETCMatrix:
    return mct_met_example_etc()


@pytest.fixture
def swa_etc() -> ETCMatrix:
    return swa_example_etc()


@pytest.fixture
def kpb_etc() -> ETCMatrix:
    return kpb_example_etc()


@pytest.fixture
def sufferage_etc() -> ETCMatrix:
    return sufferage_example_etc()
