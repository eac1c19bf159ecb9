"""Unit tests for performance specifications."""

import pytest

from repro.faults import BandedSpec, PerformanceSpec


class TestPerformanceSpec:
    def test_fault_threshold(self):
        spec = PerformanceSpec(nominal_rate=10.0, tolerance=0.2)
        assert spec.fault_threshold_rate == pytest.approx(8.0)
        assert not spec.is_performance_fault(8.0)
        assert not spec.is_performance_fault(9.5)
        assert spec.is_performance_fault(7.9)
        assert spec.is_performance_fault(0.0)

    def test_zero_tolerance_means_any_underrun_is_fault(self):
        spec = PerformanceSpec(nominal_rate=10.0, tolerance=0.0)
        assert spec.is_performance_fault(9.999)
        assert not spec.is_performance_fault(10.0)

    def test_correctness_promotion_threshold(self):
        spec = PerformanceSpec(nominal_rate=10.0, correctness_timeout=5.0)
        assert not spec.is_correctness_fault(5.0)
        assert spec.is_correctness_fault(5.01)

    def test_no_timeout_never_promotes(self):
        spec = PerformanceSpec(nominal_rate=10.0)
        assert not spec.is_correctness_fault(1e9)

    def test_expected_latency(self):
        spec = PerformanceSpec(nominal_rate=4.0)
        assert spec.expected_latency(8.0) == pytest.approx(2.0)
        assert spec.expected_latency(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PerformanceSpec(nominal_rate=0.0)
        with pytest.raises(ValueError):
            PerformanceSpec(nominal_rate=1.0, tolerance=1.0)
        with pytest.raises(ValueError):
            PerformanceSpec(nominal_rate=1.0, correctness_timeout=0.0)
        with pytest.raises(ValueError):
            PerformanceSpec(nominal_rate=1.0).is_performance_fault(-1.0)
        with pytest.raises(ValueError):
            PerformanceSpec(nominal_rate=1.0).expected_latency(-1.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_nominal_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="finite"):
            PerformanceSpec(nominal_rate=rate)


class TestBandedSpec:
    def test_expected_rate_interpolates_with_load(self):
        spec = BandedSpec(rate_at_idle=10.0, rate_at_saturation=6.0)
        assert spec.expected_rate(0.0) == 10.0
        assert spec.expected_rate(0.5) == pytest.approx(8.0)
        assert spec.expected_rate(1.0) == 6.0

    def test_utilization_clamped(self):
        spec = BandedSpec(rate_at_idle=10.0, rate_at_saturation=6.0)
        assert spec.expected_rate(-1.0) == 10.0
        assert spec.expected_rate(2.0) == 6.0

    def test_load_aware_fault_judgement(self):
        """A loaded component running at 6 is fine; an idle one is faulty."""
        spec = BandedSpec(rate_at_idle=10.0, rate_at_saturation=6.0, tolerance=0.1)
        assert not spec.is_performance_fault(6.0, utilization=1.0)
        assert spec.is_performance_fault(6.0, utilization=0.0)

    def test_simple_spec_flags_more_often_than_banded(self):
        """The Section 3.1 trade-off: simpler specs fault more often."""
        simple = PerformanceSpec(nominal_rate=10.0, tolerance=0.1)
        banded = BandedSpec(rate_at_idle=10.0, rate_at_saturation=6.0, tolerance=0.1)
        observed = [(9.0, 0.1), (7.0, 0.9), (6.0, 1.0), (5.0, 0.2)]
        simple_faults = sum(simple.is_performance_fault(r) for r, __ in observed)
        banded_faults = sum(banded.is_performance_fault(r, u) for r, u in observed)
        assert simple_faults > banded_faults

    def test_correctness_promotion(self):
        spec = BandedSpec(rate_at_idle=10.0, rate_at_saturation=6.0, correctness_timeout=2.0)
        assert spec.is_correctness_fault(3.0)
        assert not spec.is_correctness_fault(1.0)
        no_timeout = BandedSpec(rate_at_idle=10.0, rate_at_saturation=6.0)
        assert not no_timeout.is_correctness_fault(1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandedSpec(rate_at_idle=5.0, rate_at_saturation=6.0)  # sat > idle
        with pytest.raises(ValueError):
            BandedSpec(rate_at_idle=0.0, rate_at_saturation=0.0)
        with pytest.raises(ValueError):
            BandedSpec(rate_at_idle=10.0, rate_at_saturation=6.0, tolerance=1.5)
        spec = BandedSpec(rate_at_idle=10.0, rate_at_saturation=6.0)
        with pytest.raises(ValueError):
            spec.is_performance_fault(-1.0, 0.5)
