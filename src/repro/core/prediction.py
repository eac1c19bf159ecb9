"""Failure prediction from erratic performance (Section 3.3).

"Reliability may also be enhanced through the detection of performance
anomalies, as erratic performance may be an early indicator of
impending failure."

:class:`StutterTrendPredictor` watches the timestamps of a component's
performance-fault episodes and flags the component once its recent
episode rate exceeds a multiple of the fleet baseline -- the classic
wear-out signature (media errors and recalibrations accelerate before a
drive dies).  Experiment E19 measures recall, lead time and false
positives on a synthetic fleet.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["StutterTrendPredictor", "PredictionOutcome", "score_predictions"]


class StutterTrendPredictor:
    """Sliding-window episode-rate trip wire.

    Parameters
    ----------
    baseline_rate:
        Expected healthy episode rate (episodes per unit time), e.g.
        measured fleet-wide.
    window:
        Length of the sliding window over which the recent rate is
        estimated.
    factor:
        Trip multiplier: the component is flagged when its windowed rate
        exceeds ``factor * baseline_rate``.
    min_episodes:
        Episodes required inside the window before any verdict (guards
        against flagging on one unlucky burst).
    """

    def __init__(
        self,
        baseline_rate: float,
        window: float = 50.0,
        factor: float = 3.0,
        min_episodes: int = 4,
    ):
        if baseline_rate <= 0:
            raise ValueError(f"baseline_rate must be > 0, got {baseline_rate}")
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        if factor <= 1.0:
            raise ValueError(f"factor must be > 1, got {factor}")
        if min_episodes < 1:
            raise ValueError(f"min_episodes must be >= 1, got {min_episodes}")
        self.baseline_rate = baseline_rate
        self.window = window
        self.factor = factor
        self.min_episodes = min_episodes
        self._episodes: Dict[str, List[float]] = {}
        self._flagged_at: Dict[str, float] = {}

    def observe_episode(self, component: str, time: float) -> None:
        """Record one performance-fault episode start."""
        if time < 0:
            raise ValueError(f"time must be >= 0, got {time}")
        times = self._episodes.setdefault(component, [])
        if times and time < times[-1]:
            raise ValueError("episodes must be observed in time order")
        times.append(time)
        if component in self._flagged_at:
            return
        start = time - self.window
        first = bisect_left(times, start)
        recent = len(times) - first
        if recent < self.min_episodes:
            return
        rate = recent / self.window
        if rate > self.factor * self.baseline_rate:
            self._flagged_at[component] = time

    def is_flagged(self, component: str) -> bool:
        """Whether ``component`` has tripped the predictor."""
        return component in self._flagged_at

    def flagged_at(self, component: str) -> Optional[float]:
        """When ``component`` tripped (None if it never did)."""
        return self._flagged_at.get(component)


@dataclass(frozen=True)
class PredictionOutcome:
    """Fleet-level scoring of a predictor run."""

    true_positives: int
    false_positives: int
    false_negatives: int
    mean_lead_time: float

    @property
    def recall(self) -> float:
        """Dying components flagged before death."""
        total = self.true_positives + self.false_negatives
        if total == 0:
            return 1.0
        return self.true_positives / total

    @property
    def precision(self) -> float:
        """Flagged components that were actually dying."""
        total = self.true_positives + self.false_positives
        if total == 0:
            return 1.0
        return self.true_positives / total


def score_predictions(
    predictor: StutterTrendPredictor,
    death_times: Dict[str, float],
    healthy: List[str],
) -> PredictionOutcome:
    """Score a finished run against ground truth.

    ``death_times`` maps dying component names to their failure time;
    ``healthy`` lists components that never die.  A flag counts as a
    true positive only if it fired strictly before the death.
    """
    tp = 0
    lead_times = []
    for name, died_at in death_times.items():
        flagged = predictor.flagged_at(name)
        if flagged is not None and flagged < died_at:
            tp += 1
            lead_times.append(died_at - flagged)
    fn = len(death_times) - tp
    fp = sum(1 for name in healthy if predictor.is_flagged(name))
    mean_lead = sum(lead_times) / len(lead_times) if lead_times else 0.0
    return PredictionOutcome(
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        mean_lead_time=mean_lead,
    )
