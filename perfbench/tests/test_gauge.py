"""The speed gauge that puts timings on a reference-speed scale."""

from __future__ import annotations

import perfbench.common as common


def test_gauged_scales_by_the_mean_of_the_readings_around_the_call(monkeypatch):
    readings = iter([0.5, 1.5])
    monkeypatch.setattr(common, "speed_factor", lambda: next(readings))
    ticks = iter([10.0, 12.0])
    monkeypatch.setattr(common.time, "perf_counter", lambda: next(ticks))

    result, seconds, factor = common.gauged(lambda x: x + 1, 41)

    assert result == 42
    assert factor == 1.0
    assert seconds == 2.0


def test_speed_factor_is_a_plausible_ratio():
    factor = common.speed_factor()
    assert 0.05 < factor < 20.0
