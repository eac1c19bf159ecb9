"""Unit tests for wear-out prediction from stutter trends."""

import random

import pytest

from repro.core import StutterTrendPredictor, score_predictions


def feed_poisson(predictor, component, rate, horizon, rng, stop_at=None):
    """Feed episodes at a constant Poisson rate; returns last time fed."""
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t > horizon or (stop_at is not None and t > stop_at):
            return t
        predictor.observe_episode(component, t)


class TestStutterTrendPredictor:
    def test_steady_baseline_rate_not_flagged(self):
        # factor=4: a Poisson process at baseline rate bursts past 3x a
        # couple of times in 2000 time units, but 4x is vanishingly rare.
        predictor = StutterTrendPredictor(baseline_rate=0.02, window=100.0, factor=4.0)
        feed_poisson(predictor, "healthy", 0.02, 2000.0, random.Random(1))
        assert not predictor.is_flagged("healthy")

    def test_accelerating_component_flagged(self):
        predictor = StutterTrendPredictor(baseline_rate=0.02, window=100.0, factor=3.0)
        rng = random.Random(2)
        # Healthy for a while, then the episode rate ramps 10x.
        t = feed_poisson(predictor, "dying", 0.02, 1000.0, rng)
        while t < 1400.0 and not predictor.is_flagged("dying"):
            t += rng.expovariate(0.2)
            predictor.observe_episode("dying", t)
        assert predictor.is_flagged("dying")
        assert predictor.flagged_at("dying") > 1000.0

    def test_min_episodes_guards_single_burst(self):
        predictor = StutterTrendPredictor(
            baseline_rate=0.01, window=10.0, factor=2.0, min_episodes=5
        )
        for t in [100.0, 100.1]:  # two close episodes: rate spike but few
            predictor.observe_episode("x", t)
        assert not predictor.is_flagged("x")

    def test_flag_latches(self):
        predictor = StutterTrendPredictor(
            baseline_rate=0.01, window=10.0, factor=2.0, min_episodes=2
        )
        predictor.observe_episode("x", 1.0)
        predictor.observe_episode("x", 1.5)
        assert predictor.is_flagged("x")
        flagged_at = predictor.flagged_at("x")
        predictor.observe_episode("x", 500.0)  # long quiet spell afterwards
        assert predictor.flagged_at("x") == flagged_at

    def test_out_of_order_rejected(self):
        predictor = StutterTrendPredictor(baseline_rate=0.01)
        predictor.observe_episode("x", 5.0)
        with pytest.raises(ValueError):
            predictor.observe_episode("x", 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StutterTrendPredictor(baseline_rate=0.0)
        with pytest.raises(ValueError):
            StutterTrendPredictor(baseline_rate=1.0, window=0.0)
        with pytest.raises(ValueError):
            StutterTrendPredictor(baseline_rate=1.0, factor=1.0)
        with pytest.raises(ValueError):
            StutterTrendPredictor(baseline_rate=1.0, min_episodes=0)
        predictor = StutterTrendPredictor(baseline_rate=1.0)
        with pytest.raises(ValueError):
            predictor.observe_episode("x", -1.0)


class TestScoring:
    def test_true_positive_needs_flag_before_death(self):
        predictor = StutterTrendPredictor(
            baseline_rate=0.01, window=10.0, factor=2.0, min_episodes=2
        )
        predictor.observe_episode("d", 1.0)
        predictor.observe_episode("d", 1.5)  # flags here
        outcome = score_predictions(predictor, {"d": 10.0}, healthy=["h"])
        assert outcome.true_positives == 1
        assert outcome.recall == 1.0
        assert outcome.mean_lead_time == pytest.approx(10.0 - predictor.flagged_at("d"))

    def test_flag_after_death_is_a_miss(self):
        predictor = StutterTrendPredictor(
            baseline_rate=0.01, window=10.0, factor=2.0, min_episodes=2
        )
        predictor.observe_episode("d", 20.0)
        predictor.observe_episode("d", 20.5)
        outcome = score_predictions(predictor, {"d": 10.0}, healthy=[])
        assert outcome.true_positives == 0
        assert outcome.false_negatives == 1

    def test_false_positive_on_healthy(self):
        predictor = StutterTrendPredictor(
            baseline_rate=0.01, window=10.0, factor=2.0, min_episodes=2
        )
        predictor.observe_episode("h", 1.0)
        predictor.observe_episode("h", 1.2)
        outcome = score_predictions(predictor, {}, healthy=["h"])
        assert outcome.false_positives == 1
        assert outcome.precision == 0.0

    def test_empty_fleet_perfect_scores(self):
        predictor = StutterTrendPredictor(baseline_rate=0.01)
        outcome = score_predictions(predictor, {}, healthy=[])
        assert outcome.recall == 1.0
        assert outcome.precision == 1.0
