"""Tests for the host-speed correction of the benchmark's timings.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import time

import pytest

import hostspeed


def test_quiet_time_scales_each_interval_by_its_probe():
    ref = hostspeed.REFERENCE_PROBE_S
    # One second at half speed, half a second at full speed.
    intervals = [(1.0, 2 * ref), (0.5, ref)]
    assert hostspeed.raw_time(intervals) == pytest.approx(1.5)
    assert hostspeed.quiet_time(intervals) == pytest.approx(0.5 + 0.5)


def test_sampler_cuts_a_section_into_probed_intervals():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        start = time.perf_counter()
        sampler.open()
        while time.perf_counter() - start < 10 * hostspeed.PERIOD_S:
            pass
        sampler.close()
        elapsed = time.perf_counter() - start
        # Outside a section the timer records nothing.
        time.sleep(3 * hostspeed.PERIOD_S)
    finally:
        sampler.stop()
    intervals = sampler.take()
    assert len(intervals) >= 5
    assert sampler.take() == []
    # Program time and probe time together fill the section exactly.
    covered = hostspeed.raw_time(intervals) + sum(p for __, p in intervals)
    assert covered == pytest.approx(elapsed, abs=1e-3)
