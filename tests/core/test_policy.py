"""Unit behaviour of the mitigation policies and the latency estimator."""

import pytest

from repro.core.estimator import LatencyEstimator
from repro.policy import (
    POLICIES,
    AdaptiveTimeoutPolicy,
    FixedTimeoutPolicy,
    HedgedRequestPolicy,
    MitigationPolicy,
    RetryBackoffPolicy,
    StutterAwarePolicy,
    make_policy,
)


class TestLatencyEstimator:
    def test_seed_and_properties(self):
        est = LatencyEstimator(initial=1.0)
        assert est.mean == 1.0
        assert est.deviation == 0.5
        assert est.observations == 0
        assert est.timeout() == pytest.approx(1.0 + 4.0 * 0.5)

    def test_tracks_inflating_latency(self):
        est = LatencyEstimator(initial=0.1)
        before = est.timeout()
        for __ in range(30):
            est.observe(1.0)
        assert est.mean > 0.8
        assert est.timeout() > before

    def test_floor_bounds_collapse(self):
        est = LatencyEstimator(initial=1.0, floor=0.75)
        for __ in range(200):
            est.observe(0.01)
        assert est.timeout() == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyEstimator(initial=0.0)
        with pytest.raises(ValueError):
            LatencyEstimator(initial=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            LatencyEstimator(initial=1.0, k=0.0)
        with pytest.raises(ValueError):
            LatencyEstimator(initial=1.0).observe(-0.1)


class _StubEngine:
    expected_service = 0.1
    nominal_rate = 5.0

    def __init__(self):
        self.scheduled = []

    def arm_timer(self, request, delay):
        self.scheduled.append(delay)


class TestPolicyRoster:
    def test_roster_names_match_classes(self):
        assert POLICIES == {
            "fixed-timeout": FixedTimeoutPolicy,
            "adaptive-timeout": AdaptiveTimeoutPolicy,
            "retry-backoff": RetryBackoffPolicy,
            "hedged": HedgedRequestPolicy,
            "stutter-aware": StutterAwarePolicy,
        }

    def test_make_policy_returns_fresh_instances(self):
        a = make_policy("fixed-timeout")
        b = make_policy("fixed-timeout")
        assert a is not b and isinstance(a, MitigationPolicy)

    def test_fixed_timeout_scales_expected_service(self):
        policy = FixedTimeoutPolicy(timeout_factor=5.0)
        policy.bind(_StubEngine())
        assert policy.base_timeout == pytest.approx(0.5)

    def test_adaptive_starts_at_fixed_threshold(self):
        fixed = FixedTimeoutPolicy(timeout_factor=5.0)
        adaptive = AdaptiveTimeoutPolicy(timeout_factor=5.0)
        fixed.bind(_StubEngine())
        adaptive.bind(_StubEngine())
        assert adaptive.current_timeout(None) == pytest.approx(
            fixed.current_timeout(None)
        )

    def test_backoff_doubles_per_attempt(self):
        policy = RetryBackoffPolicy(timeout_factor=5.0, multiplier=2.0)
        policy.bind(_StubEngine())

        class R:
            attempts = 3

        assert policy.current_timeout(R()) == pytest.approx(policy.base_timeout * 4)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FixedTimeoutPolicy(timeout_factor=0.0)
        with pytest.raises(ValueError):
            FixedTimeoutPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryBackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            HedgedRequestPolicy(hedge_factor=0.0)
