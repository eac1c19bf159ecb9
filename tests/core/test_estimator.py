"""Unit and property tests for rate estimators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EwmaRateEstimator, WindowedRateEstimator


class TestWindowedRateEstimator:
    def test_no_data_returns_none(self):
        assert WindowedRateEstimator().rate() is None

    def test_single_observation(self):
        est = WindowedRateEstimator()
        est.observe(10.0, 2.0)
        assert est.rate() == pytest.approx(5.0)

    def test_work_weighted_mean(self):
        est = WindowedRateEstimator()
        est.observe(10.0, 1.0)  # 10/s
        est.observe(10.0, 9.0)  # 1.11/s
        # Total 20 work in 10 s = 2.0/s, not the 5.5 arithmetic mean.
        assert est.rate() == pytest.approx(2.0)

    def test_window_evicts_old_samples(self):
        est = WindowedRateEstimator(window=2)
        est.observe(1.0, 1.0)
        est.observe(10.0, 1.0)
        est.observe(10.0, 1.0)
        assert est.rate() == pytest.approx(10.0)

    def test_reset(self):
        est = WindowedRateEstimator()
        est.observe(1.0, 1.0)
        est.reset()
        assert est.rate() is None
        assert len(est) == 0

    def test_zero_duration_is_infinite_rate(self):
        est = WindowedRateEstimator()
        est.observe(1.0, 0.0)
        assert est.rate() == float("inf")

    @given(
        st.integers(1, 6),
        st.lists(st.tuples(st.floats(1e-6, 1e6), st.floats(0.0, 1e6)),
                 min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_is_bit_identical_to_a_fresh_resum(self, window, observations):
        """Every rate() equals total work / total time re-summed in order."""
        est = WindowedRateEstimator(window=window)
        for i, (work, duration) in enumerate(observations):
            est.observe(work, duration)
            recent = observations[max(0, i + 1 - window):i + 1]
            total_time = sum(d for __, d in recent)
            expected = (float("inf") if total_time <= 0
                        else sum(w for w, __ in recent) / total_time)
            assert est.rate() == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedRateEstimator(window=0)
        est = WindowedRateEstimator()
        with pytest.raises(ValueError):
            est.observe(0.0, 1.0)
        with pytest.raises(ValueError):
            est.observe(1.0, -1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=100.0),
                st.floats(min_value=0.01, max_value=100.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_rate_bounded_by_sample_extremes(self, samples):
        est = WindowedRateEstimator(window=len(samples))
        for work, duration in samples:
            est.observe(work, duration)
        rates = [w / d for w, d in samples]
        assert min(rates) - 1e-9 <= est.rate() <= max(rates) + 1e-9


class TestEwmaRateEstimator:
    def test_first_sample_sets_estimate(self):
        est = EwmaRateEstimator(alpha=0.5)
        est.observe(10.0, 2.0)
        assert est.rate() == pytest.approx(5.0)

    def test_smoothing(self):
        est = EwmaRateEstimator(alpha=0.5)
        est.observe(10.0, 1.0)  # 10
        est.observe(2.0, 1.0)  # 0.5*2 + 0.5*10 = 6
        assert est.rate() == pytest.approx(6.0)

    def test_small_alpha_resists_transients(self):
        smooth = EwmaRateEstimator(alpha=0.1)
        jumpy = EwmaRateEstimator(alpha=0.9)
        for __ in range(10):
            smooth.observe(10.0, 1.0)
            jumpy.observe(10.0, 1.0)
        smooth.observe(1.0, 1.0)
        jumpy.observe(1.0, 1.0)
        assert smooth.rate() > jumpy.rate()

    def test_reset(self):
        est = EwmaRateEstimator()
        est.observe(1.0, 1.0)
        est.reset()
        assert est.rate() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaRateEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaRateEstimator(alpha=1.5)
