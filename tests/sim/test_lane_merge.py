"""Lane-combine operators: StreamingMoments.merge and pooled quantiles.

These are what fold per-lane metrics into one scorecard.  The contract:
merge is *as if* every observation had been pushed into one recorder --
count/min/max exact, mean/variance to float rounding (1e-9 against exact
recomputation).  Quantiles do not merge (no sketch keeps enough), so
lanes pool their samples and take one :class:`ExactQuantile` -- the
rolling p99 of run_soak -- which is exact, bounded by the pooled
extremes and monotone in ``q``.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import ExactQuantile, StreamingMoments


def _lerp_quantile(values, q):
    """Reference: linear interpolation at position ``q * (n - 1)`` of the
    sorted samples, ``lo * (1 - f) + hi * f`` in Python floats."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def _filled(values):
    moments = StreamingMoments()
    for v in values:
        moments.push(v)
    return moments


sample_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    max_size=40,
)


class TestStreamingMomentsMerge:
    def test_merge_matches_single_stream(self):
        rng = random.Random(13)
        a = [rng.uniform(0, 100) for _ in range(500)]
        b = [rng.uniform(50, 200) for _ in range(300)]
        merged = _filled(a).merge(_filled(b))
        combined = _filled(a + b)
        assert merged.count == combined.count
        assert merged.minimum == combined.minimum
        assert merged.maximum == combined.maximum
        assert merged.mean == pytest.approx(combined.mean, abs=1e-9)
        assert merged.variance == pytest.approx(combined.variance, abs=1e-9)

    def test_merge_into_empty(self):
        values = [3.0, 1.0, 4.0]
        merged = StreamingMoments().merge(_filled(values))
        assert merged.count == 3
        assert merged.mean == _filled(values).mean
        assert merged.minimum == 1.0
        assert merged.maximum == 4.0

    def test_merge_empty_is_noop(self):
        moments = _filled([2.0, 8.0])
        before = (moments.count, moments.mean, moments.variance)
        moments.merge(StreamingMoments())
        assert (moments.count, moments.mean, moments.variance) == before

    def test_merge_returns_self_for_chaining(self):
        a = _filled([1.0])
        assert a.merge(_filled([2.0])) is a

    def test_chained_lane_fold(self):
        rng = random.Random(7)
        lanes = [[rng.gauss(0, 1) for _ in range(rng.randint(0, 30))] for _ in range(8)]
        folded = StreamingMoments()
        for lane in lanes:
            folded.merge(_filled(lane))
        flat = [v for lane in lanes for v in lane]
        reference = _filled(flat)
        assert folded.count == reference.count
        assert folded.mean == pytest.approx(reference.mean, abs=1e-9)
        assert folded.variance == pytest.approx(reference.variance, abs=1e-9)

    @given(sample_lists, sample_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_property(self, a, b):
        merged = _filled(a).merge(_filled(b))
        combined = _filled(a + b)
        assert merged.count == combined.count
        if combined.count:
            assert merged.minimum == combined.minimum
            assert merged.maximum == combined.maximum
            scale = max(1.0, abs(combined.mean))
            assert merged.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-9 * scale)
            vscale = max(1.0, combined.variance)
            assert merged.variance == pytest.approx(
                combined.variance, rel=1e-7, abs=1e-7 * vscale
            )


class TestPooledExactQuantile:
    @staticmethod
    def _pooled(lanes, q):
        return ExactQuantile.of(np.concatenate(lanes), (q,))[0].value()

    def test_pooled_lanes_match_the_python_lerp(self):
        rng = random.Random(3)
        lanes = [np.array([rng.uniform(0, 10) for _ in range(rng.randint(1, 40))])
                 for _ in range(6)]
        flat = np.concatenate(lanes).tolist()
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            # Same interpolation point; numpy rounds the lerp its own way.
            assert self._pooled(lanes, q) == pytest.approx(
                _lerp_quantile(flat, q), rel=1e-15, abs=1e-15)

    def test_empty_lanes_are_ignored(self):
        lane = np.array([1.0, 2.0, 3.0])
        empty = np.empty(0)
        assert self._pooled([empty, lane, empty], 0.9) == self._pooled([lane], 0.9)

    def test_all_empty_returns_zero(self):
        assert self._pooled([np.empty(0), np.empty(0)], 0.5) == 0.0

    def test_monotone_in_q(self):
        rng = random.Random(4)
        lanes = [np.array([rng.gauss(10, 3) for _ in range(150)]) for _ in range(3)]
        values = [self._pooled(lanes, q) for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert values == sorted(values)

    def test_round_trips_through_dict(self):
        (p99,) = ExactQuantile.of([0.5, 0.25, 4.0], (0.99,))
        again = ExactQuantile.from_dict(p99.to_dict())
        assert (again.q, again.value()) == (p99.q, p99.value())

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                min_size=1,
                max_size=30,
            ),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from([0.1, 0.5, 0.9]),
    )
    @settings(max_examples=50, deadline=None)
    def test_pooled_bounded_property(self, lane_data, q):
        lanes = [np.array(data) for data in lane_data]
        flat = [x for data in lane_data for x in data]
        pooled = self._pooled(lanes, q)
        assert min(flat) <= pooled <= max(flat)
        assert pooled == float(np.quantile(np.array(flat), q))
