"""Unit tests for the online moments, the P² estimator and cached availability."""

import math
import random

import pytest

from repro.sim.metrics import (
    AvailabilityMeter,
    LatencyRecorder,
    P2Quantile,
    StreamingMoments,
)


class TestStreamingMoments:
    def test_empty(self):
        m = StreamingMoments()
        assert m.count == 0
        assert m.variance == 0.0
        assert m.stddev == 0.0

    def test_matches_two_pass_exactly_enough(self):
        rng = random.Random(1)
        xs = [rng.uniform(-5, 5) for _ in range(1000)]
        m = StreamingMoments()
        for x in xs:
            m.push(x)
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        assert m.count == len(xs)
        assert m.minimum == min(xs)
        assert m.maximum == max(xs)
        assert math.isclose(m.mean, mean, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(m.variance, var, rel_tol=1e-9)

    def test_stable_under_large_offset(self):
        """The regime that breaks the sum-of-squares shortcut."""
        offset = 1e9
        m = StreamingMoments()
        naive_sum = naive_sumsq = 0.0
        values = [offset + x for x in (0.0, 1.0, 2.0, 3.0, 4.0)]
        for x in values:
            m.push(x)
            naive_sum += x
            naive_sumsq += x * x
        assert math.isclose(m.variance, 2.0, rel_tol=1e-9)
        naive_var = naive_sumsq / 5 - (naive_sum / 5) ** 2
        assert abs(naive_var - 2.0) > 1e-3  # the shortcut really does break

    def test_no_dict(self):
        assert not hasattr(StreamingMoments(), "__dict__")


class TestP2Quantile:
    def test_validation(self):
        with pytest.raises(ValueError):
            P2Quantile(1.5)

    def test_small_samples_exact(self):
        est = P2Quantile(0.5)
        assert est.value() == 0.0
        for x in (3.0, 1.0, 2.0):
            est.push(x)
        assert est.value() == 2.0
        assert est.count == 3

    def test_converges_on_uniform(self):
        rng = random.Random(42)
        for q in (0.5, 0.9, 0.99):
            est = P2Quantile(q)
            for _ in range(50_000):
                est.push(rng.random())
            assert abs(est.value() - q) < 0.02
            assert est.count == 50_000

    def test_monotone_marker_order(self):
        rng = random.Random(9)
        est = P2Quantile(0.9)
        for _ in range(5000):
            est.push(rng.expovariate(1.0))
        assert est._heights == sorted(est._heights)


class TestStreamingLatencyRecorder:
    """A latency stream fed one sample at a time or as a batch."""

    def test_negative_rejected_both_modes(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.record(-0.1)
        with pytest.raises(ValueError):
            recorder.record_many([0.2, -0.1])
        assert recorder.samples == []  # a rejected batch stores nothing


class TestExactModeCachedAvailability:
    def test_cache_invalidated_on_record(self):
        meter = AvailabilityMeter(slo=1.0)
        meter.record(0.4)
        assert meter.availability_at(0.5) == 1.0
        meter.record(0.9)  # must invalidate the sorted view
        assert meter.availability_at(0.5) == 0.5
        meter.record(None)
        assert meter.availability_at(0.5) == pytest.approx(1 / 3)
        assert meter.availability_at(float("inf")) == 1.0
