"""E19: erratic performance as an early failure indicator (Section 3.3).

"Reliability may also be enhanced through the detection of performance
anomalies, as erratic performance may be an early indicator of
impending failure."

A synthetic fleet: most disks stutter at a constant background rate and
never die; a few wear out -- their stutter rate accelerates until they
fail-stop.  The :class:`~repro.core.prediction.StutterTrendPredictor`
watches episode timestamps only.  Reported: recall (dying disks flagged
before death), precision, mean warning lead time, and the healthy
false-positive count.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..analysis.report import Table
from ..core.prediction import StutterTrendPredictor, score_predictions
from ..sim.random import derive_seed

__all__ = ["run"]


def _healthy_episodes(rate: float, horizon: float, rng: random.Random) -> List[float]:
    times, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t > horizon:
            return times
        times.append(t)


def _wearout_episodes(
    base_rate: float, death_at: float, acceleration: float, rng: random.Random
) -> List[float]:
    """Episode times whose rate ramps as the component approaches death."""
    times, t = [], 0.0
    while True:
        progress = min(1.0, t / death_at)
        rate = base_rate * (1.0 + acceleration * progress**2)
        t += rng.expovariate(rate)
        if t >= death_at:
            return times
        times.append(t)


def _episode_stream(
    name: str,
    death_at: Optional[float],
    base_rate: float,
    acceleration: float,
    horizon: float,
    seed: int,
) -> List[float]:
    """One disk's episode timeline, seeded from its name
    (``death_at=None`` marks a healthy disk)."""
    rng = random.Random(derive_seed(seed, f"e19/{name}"))
    if death_at is None:
        return _healthy_episodes(base_rate, horizon, rng)
    return _wearout_episodes(base_rate, death_at, acceleration, rng)


def run(
    n_healthy: int = 16,
    n_dying: int = 4,
    base_rate: float = 0.02,
    acceleration: float = 30.0,
    horizon: float = 3000.0,
    seed: int = 41,
) -> Table:
    """Regenerate the E19 table: predictor scores on the synthetic fleet.

    Each disk's episode timeline is seeded independently from its name
    (:func:`derive_seed`), so the fleet's streams are order-independent.
    The predictor consumes the merged timeline in global order, as a
    live monitor would.
    """
    predictor = StutterTrendPredictor(
        baseline_rate=base_rate, window=100.0, factor=4.0, min_episodes=5
    )
    death_times: Dict[str, float] = {
        f"dying{i}": random.Random(derive_seed(seed, f"e19/death/dying{i}")).uniform(
            0.5, 0.9
        )
        * horizon
        for i in range(n_dying)
    }
    points: List[Tuple[str, Optional[float]]] = [
        (f"ok{i}", None) for i in range(n_healthy)
    ] + [(f"dying{i}", death_times[f"dying{i}"]) for i in range(n_dying)]
    streams: Dict[str, List[float]] = {
        name: _episode_stream(name, death_at, base_rate, acceleration, horizon, seed)
        for name, death_at in points
    }

    # Merge-feed all episodes in global time order (as a monitor would see).
    events = sorted(
        (t, name) for name, times in streams.items() for t in times
    )
    for t, name in events:
        predictor.observe_episode(name, t)

    outcome = score_predictions(
        predictor, death_times, healthy=[f"ok{i}" for i in range(n_healthy)]
    )
    table = Table(
        f"E19: wear-out prediction from stutter trends "
        f"({n_healthy} healthy + {n_dying} dying disks)",
        ["metric", "value"],
        note="paper: erratic performance as an early indicator of "
        "impending failure (Section 3.3, Reliability)",
    )
    table.add_row("dying disks flagged before death", float(outcome.true_positives))
    table.add_row("recall", outcome.recall)
    table.add_row("precision", outcome.precision)
    table.add_row("false positives (healthy flagged)", float(outcome.false_positives))
    table.add_row("mean warning lead time (s)", outcome.mean_lead_time)
    return table
