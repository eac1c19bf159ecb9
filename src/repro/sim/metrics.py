"""Performance metrics for simulated systems.

The paper's benefits argument (Section 3.3) is framed in terms of
*availability* as defined by Gray & Reuter: "the fraction of the offered
load that is processed with acceptable response times."
:class:`AvailabilityMeter` implements exactly that definition; the other
meters provide the throughput/latency/utilization views the experiments
report.

Two recording modes
-------------------

The latency and availability meters default to *exact* mode: every
sample is retained, quantiles are computed over the full sorted sample
set, and every number in EXPERIMENTS.md is reproducible bit for bit.
For production-scale runs whose sample counts would not fit in memory,
both accept ``streaming=True``: an O(1)-memory mode built on
:class:`StreamingMoments` (Welford mean/variance, exact) and
:class:`P2Quantile` (the Jain & Chlamtac P² estimator, approximate).
Counts, means, extremes and SLO fractions stay exact in streaming mode;
only the quantiles are estimates, so keep the default for anything that
feeds a regression-checked table.

Whole sample arrays (campaign outcomes, soak windows) are folded in one
numpy pass instead: :meth:`StreamingMoments.of` and
:class:`ExactQuantile` give the same read surface as the streaming
forms, computed from every sample.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .engine import Simulator

__all__ = [
    "ThroughputMeter",
    "LatencyRecorder",
    "UtilizationMeter",
    "AvailabilityMeter",
    "LatencySummary",
    "StreamingMoments",
    "P2Quantile",
    "ExactQuantile",
    "quantile_from_dict",
]


class StreamingMoments:
    """Welford's online mean/variance: O(1) memory, one pass.

    Numerically stable for arbitrarily long streams — the classic
    sum/sum-of-squares shortcut cancels catastrophically once the mean
    dwarfs the spread, which is exactly the regime a week-long
    production run reaches.  Count, mean, min and max are exact;
    variance matches the two-pass population variance to float rounding.
    """

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def push(self, x: float) -> None:
        """Fold one observation into the running moments."""
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Fold another recorder's stream into this one, in place.

        Chan et al.'s parallel-variance combine: the result is as if
        every observation behind ``other`` had been pushed here.  Count,
        min and max are exact; mean and variance agree with a single
        combined stream to float rounding (the batch equivalence tests
        pin 1e-9 against exact recomputation).  Returns ``self`` so lane
        folds chain: ``reduce(lambda a, b: a.merge(b), lanes)``.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 = self._m2 + other._m2 + delta * delta * (self.count * other.count / total)
        self.mean = self.mean + delta * (other.count / total)
        self.count = total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        return self

    @classmethod
    def of(cls, values) -> "StreamingMoments":
        """The moments of a whole sample array, folded in one numpy pass.

        The state :meth:`push` would build, computed from every sample at
        once: count and extremes exact, the mean and the centred sum of
        squares as numpy pairwise sums (deterministic, within O(log n)
        ulps).  Soak windows and trace run-end records use this.
        """
        moments = cls()
        values = np.asarray(values, dtype=np.float64)
        if values.size:
            mean = float(np.mean(values))
            deviations = values - mean
            moments.count = int(values.size)
            moments.mean = mean
            # An elementwise square and a pairwise sum, not np.dot: BLAS
            # kernels round differently per CPU, and traces carry m2.
            moments._m2 = float(np.sum(deviations * deviations))
            moments.minimum = float(values.min())
            moments.maximum = float(values.max())
        return moments

    def to_dict(self) -> dict:
        """Exact JSON-ready state; :meth:`from_dict` round-trips it.

        Floats are carried verbatim (``repr`` round-trip through JSON
        is exact for finite doubles); infinities from the empty
        recorder survive because the JSON layer emits ``Infinity``
        literals.  Trace run-end/window records embed this, so a replay
        reconstructs scorecard statistics bit-for-bit.
        """
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self._m2,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamingMoments":
        """Rebuild a recorder serialized by :meth:`to_dict`."""
        moments = cls()
        moments.count = int(payload["count"])
        moments.mean = float(payload["mean"])
        moments._m2 = float(payload["m2"])
        moments.minimum = float(payload["min"])
        moments.maximum = float(payload["max"])
        return moments

    @property
    def variance(self) -> float:
        """Population variance of the observations so far (0 if empty)."""
        if self.count == 0:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        """Population standard deviation (0 if empty)."""
        return math.sqrt(self.variance)


class P2Quantile:
    """The P² (piecewise-parabolic) single-quantile estimator.

    Jain & Chlamtac 1985: five markers track the running q-quantile
    without storing observations.  Until five samples arrive the exact
    order statistics are kept, so small streams report exact values;
    beyond that the marker heights are adjusted with a parabolic
    interpolation and the estimate is approximate (typically within a
    percent or two for smooth distributions).
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, q: float):
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        self.q = q
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    @property
    def count(self) -> int:
        """Observations folded in so far."""
        if len(self._heights) < 5:
            return len(self._heights)
        return int(self._positions[4])

    def push(self, x: float) -> None:
        """Fold one observation into the estimator."""
        heights = self._heights
        if len(heights) < 5:
            heights.append(x)
            heights.sort()
            return
        # Locate the marker cell containing x, clamping the extremes.
        if x < heights[0]:
            heights[0] = x
            k = 0
        elif x >= heights[4]:
            heights[4] = x
            k = 3
        else:
            k = 0
            while x >= heights[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Nudge the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = self._desired[i] - self._positions[i]
            if (d >= 1.0 and self._positions[i + 1] - self._positions[i] > 1.0) or (
                d <= -1.0 and self._positions[i - 1] - self._positions[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                self._positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        n, h = self._positions, self._heights
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        n, h = self._positions, self._heights
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current estimate of the q-quantile (0.0 if no observations)."""
        heights = self._heights
        if not heights:
            return 0.0
        if len(heights) < 5:
            # Exact small-sample quantile, same interpolation as the
            # exact recorder.
            if len(heights) == 1:
                return heights[0]
            pos = self.q * (len(heights) - 1)
            lo = int(math.floor(pos))
            hi = int(math.ceil(pos))
            frac = pos - lo
            return heights[lo] * (1 - frac) + heights[hi] * frac
        return heights[2]

    def to_dict(self) -> dict:
        """Exact JSON-ready marker state; :meth:`from_dict` round-trips it."""
        return {
            "q": self.q,
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "P2Quantile":
        """Rebuild an estimator serialized by :meth:`to_dict`."""
        estimator = cls(float(payload["q"]))
        estimator._heights = [float(x) for x in payload["heights"]]
        estimator._positions = [float(x) for x in payload["positions"]]
        estimator._desired = [float(x) for x in payload["desired"]]
        return estimator


class ExactQuantile:
    """One q-quantile computed from every sample with ``np.quantile``.

    The exact counterpart of :class:`P2Quantile`'s read side (``q``,
    :meth:`value`, :meth:`to_dict`), so scorecards and trace replay read
    either form.  The definition is numpy's default ``"linear"`` method:
    interpolate between the order statistics around position
    ``q * (n - 1)`` -- the same point :meth:`LatencyRecorder.quantile`
    interpolates at, with numpy's own rounding of the interpolation.
    """

    __slots__ = ("q", "_value")

    def __init__(self, q: float, value: float):
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        self.q = q
        self._value = value

    @classmethod
    def of(cls, values, qs: Sequence[float]) -> List["ExactQuantile"]:
        """One exact quantile per entry of ``qs``, from one numpy pass.

        An empty sample set reports 0.0 for every ``q`` (as
        :meth:`P2Quantile.value` does with no observations).
        """
        values = np.asarray(values, dtype=np.float64)
        if not values.size:
            return [cls(q, 0.0) for q in qs]
        return [cls(q, float(x)) for q, x in zip(qs, np.quantile(values, qs))]

    def value(self) -> float:
        """The quantile's value."""
        return self._value

    def to_dict(self) -> dict:
        """JSON-ready form; :meth:`from_dict` round-trips it exactly."""
        return {"q": self.q, "value": self._value}

    @classmethod
    def from_dict(cls, payload: dict) -> "ExactQuantile":
        return cls(float(payload["q"]), float(payload["value"]))

    def __repr__(self) -> str:
        return f"ExactQuantile(q={self.q!r}, value={self._value!r})"


def quantile_from_dict(payload: dict) -> Union[ExactQuantile, P2Quantile]:
    """Rebuild a serialized quantile of either form.

    Schema-2 traces carry :class:`ExactQuantile` values (``q`` and
    ``value``); schema-1 traces carry :class:`P2Quantile` marker state
    (``heights`` and its companions), which replay still reads.
    """
    if "heights" in payload:
        return P2Quantile.from_dict(payload)
    return ExactQuantile.from_dict(payload)


class ThroughputMeter:
    """Counts completed work and reports rates over elapsed time."""

    def __init__(self, sim: Simulator, name: str = "throughput"):
        self.sim = sim
        self.name = name
        self._start = sim.now
        self.completed_work = 0.0
        self.completed_jobs = 0

    def record(self, work: float) -> None:
        """Record ``work`` units completed now."""
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        self.completed_work += work
        self.completed_jobs += 1

    def reset(self) -> None:
        """Zero the counters and restart the measurement window."""
        self._start = self.sim.now
        self.completed_work = 0.0
        self.completed_jobs = 0

    @property
    def elapsed(self) -> float:
        """Length of the current measurement window."""
        return self.sim.now - self._start

    def rate(self) -> float:
        """Completed work per unit time over the window (0 if empty)."""
        if self.elapsed <= 0:
            return 0.0
        return self.completed_work / self.elapsed

    def job_rate(self) -> float:
        """Completed jobs per unit time over the window."""
        if self.elapsed <= 0:
            return 0.0
        return self.completed_jobs / self.elapsed


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics for a batch of latencies."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float
    stddev: float


class LatencyRecorder:
    """Collects per-request latencies and summarises them.

    Exact mode (the default) retains every sample; the sorted view
    needed by :meth:`quantile` / :meth:`summary` is cached and
    invalidated on :meth:`record` / :meth:`record_many`, so repeated
    summary calls over a stable sample set cost O(1) instead of
    re-sorting each time.  (Mutate samples through those two only;
    writing to ``samples`` directly bypasses the cache invalidation.)

    ``streaming=True`` switches to O(1) memory for production-scale
    runs: moments via :class:`StreamingMoments` and one
    :class:`P2Quantile` per entry of ``quantiles`` (default the
    p50/p90/p99 that :meth:`summary` reports).  Quantiles are then
    approximate and :meth:`quantile` only answers the tracked ones;
    ``samples`` stays empty.
    """

    def __init__(
        self,
        name: str = "latency",
        streaming: bool = False,
        quantiles: Sequence[float] = (0.50, 0.90, 0.99),
    ):
        self.name = name
        self.streaming = streaming
        self.samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._moments: Optional[StreamingMoments] = None
        self._estimators: dict = {}
        if streaming:
            self._moments = StreamingMoments()
            for q in quantiles:
                self._estimators[q] = P2Quantile(q)

    def record(self, latency: float) -> None:
        """Record one request latency."""
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if self.streaming:
            self._moments.push(latency)
            for estimator in self._estimators.values():
                estimator.push(latency)
            return
        self.samples.append(latency)
        self._sorted = None

    def record_many(self, latencies) -> None:
        """Record a batch of latencies (any float sequence or array), in order.

        Exact mode stores the same Python floats, in the same order, as
        calling :meth:`record` on each value, so every summary is
        bit-identical; only the per-sample call overhead is gone.
        """
        values = np.asarray(latencies, dtype=np.float64)
        if np.any(values < 0):
            raise ValueError(
                f"latency must be >= 0, got {float(values[values < 0][0])}"
            )
        if self.streaming:
            for latency in values.tolist():
                self.record(latency)
            return
        self.samples.extend(values.tolist())
        self._sorted = None

    def _ordered(self) -> List[float]:
        """The cached sorted view of the samples."""
        if self._sorted is None or len(self._sorted) != len(self.samples):
            self._sorted = sorted(self.samples)
        return self._sorted

    def __len__(self) -> int:
        if self.streaming:
            return self._moments.count
        return len(self.samples)

    @staticmethod
    def _quantile(ordered: List[float], q: float) -> float:
        """Linear-interpolated quantile of a pre-sorted list."""
        if not ordered:
            return 0.0
        if len(ordered) == 1:
            return ordered[0]
        pos = q * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        frac = pos - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]) of recorded latencies.

        In streaming mode only the quantiles named at construction are
        tracked; asking for any other q raises ``ValueError``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.streaming:
            estimator = self._estimators.get(q)
            if estimator is None:
                raise ValueError(
                    f"streaming recorder tracks {sorted(self._estimators)}, "
                    f"not q={q}; list it in `quantiles` at construction"
                )
            return estimator.value()
        return self._quantile(self._ordered(), q)

    def count_over(self, threshold: float) -> int:
        """How many recorded latencies exceed ``threshold``.

        This is the SLO-violation count the campaign scorecards report
        (a request violates a latency SLO when it takes strictly longer
        than the SLO).  Answered with one bisect over the cached sorted
        view; exact mode only -- the streaming recorder does not retain
        samples, so it cannot answer an arbitrary threshold after the
        fact.
        """
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if self.streaming:
            raise ValueError(
                "count_over needs retained samples; use streaming=False"
            )
        ordered = self._ordered()
        return len(ordered) - bisect_right(ordered, threshold)

    def summary(self) -> LatencySummary:
        """Full summary of the recorded latencies.

        Exact mode computes every field from the retained samples;
        streaming mode reads the Welford moments (count/mean/extremes
        exact, stddev to float rounding) and the P² estimates for any
        tracked p50/p90/p99 (0.0 for untracked ones).
        """
        if self.streaming:
            moments = self._moments
            if moments.count == 0:
                return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

            def estimate(q: float) -> float:
                estimator = self._estimators.get(q)
                return estimator.value() if estimator is not None else 0.0

            return LatencySummary(
                count=moments.count,
                mean=moments.mean,
                minimum=moments.minimum,
                maximum=moments.maximum,
                p50=estimate(0.50),
                p90=estimate(0.90),
                p99=estimate(0.99),
                stddev=moments.stddev,
            )
        if not self.samples:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = self._ordered()
        n = len(ordered)
        mean = sum(ordered) / n
        var = sum((x - mean) ** 2 for x in ordered) / n
        return LatencySummary(
            count=n,
            mean=mean,
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=self._quantile(ordered, 0.50),
            p90=self._quantile(ordered, 0.90),
            p99=self._quantile(ordered, 0.99),
            stddev=math.sqrt(var),
        )


class UtilizationMeter:
    """Tracks the busy fraction of a component over time."""

    def __init__(self, sim: Simulator, name: str = "utilization"):
        self.sim = sim
        self.name = name
        self._busy_since: Optional[float] = None
        self._busy_total = 0.0
        self._start = sim.now

    def set_busy(self) -> None:
        """Mark the component busy (idempotent)."""
        if self._busy_since is None:
            self._busy_since = self.sim.now

    def set_idle(self) -> None:
        """Mark the component idle (idempotent)."""
        if self._busy_since is not None:
            self._busy_total += self.sim.now - self._busy_since
            self._busy_since = None

    def utilization(self) -> float:
        """Busy fraction since construction (in [0, 1])."""
        elapsed = self.sim.now - self._start
        if elapsed <= 0:
            return 0.0
        busy = self._busy_total
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return min(1.0, busy / elapsed)


class AvailabilityMeter:
    """Gray & Reuter availability: fraction of load served within an SLO.

    Each offered request is recorded with its response time (or as
    *unserved* if it never completed); availability is the fraction whose
    response time was at most ``slo``.

    Exact mode (the default) retains every response time so
    :meth:`availability_at` can answer any SLO exactly — via one bisect
    over a cached sorted view, invalidated on :meth:`record`.
    ``streaming=True`` drops the per-request list for O(1) memory:
    :meth:`availability` and the construction-time SLO stay exact, and
    :meth:`availability_at` interpolates over a P² quantile ladder
    (approximate; still monotone in the SLO).
    """

    #: Quantile ladder backing the streaming-mode availability curve.
    _LADDER: Tuple[float, ...] = (0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999)

    def __init__(self, slo: float, name: str = "availability", streaming: bool = False):
        if slo <= 0:
            raise ValueError(f"slo must be > 0, got {slo}")
        self.slo = slo
        self.name = name
        self.streaming = streaming
        self.offered = 0
        self.within_slo = 0
        self.unserved = 0
        self.response_times: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._ladder: List[P2Quantile] = (
            [P2Quantile(q) for q in self._LADDER] if streaming else []
        )

    def record(self, response_time: Optional[float]) -> None:
        """Record one offered request.

        ``response_time`` of ``None`` means the request was never served
        (it still counts against availability).
        """
        self.offered += 1
        if response_time is None:
            self.unserved += 1
            if not self.streaming:
                self.response_times.append(float("inf"))
                self._sorted = None
            return
        if response_time < 0:
            raise ValueError(f"response time must be >= 0, got {response_time}")
        if self.streaming:
            for estimator in self._ladder:
                estimator.push(response_time)
        else:
            self.response_times.append(response_time)
            self._sorted = None
        if response_time <= self.slo:
            self.within_slo += 1

    def availability(self) -> float:
        """Fraction of offered load served within the SLO (in [0, 1])."""
        if self.offered == 0:
            return 1.0
        return self.within_slo / self.offered

    def _ordered(self) -> List[float]:
        """The cached sorted view of the response times (exact mode)."""
        if self._sorted is None or len(self._sorted) != len(self.response_times):
            self._sorted = sorted(self.response_times)
        return self._sorted

    def availability_at(self, slo: float) -> float:
        """Availability recomputed against a different SLO.

        Monotone nondecreasing in ``slo`` by construction.  Exact mode
        answers with one bisect over the cached sorted response times;
        streaming mode inverts the P² quantile ladder by linear
        interpolation (exact at 0 served, approximate between ladder
        points, never counting unserved requests as available).
        """
        if self.offered == 0:
            return 1.0
        if not self.streaming:
            return bisect_right(self._ordered(), slo) / self.offered
        served = self.offered - self.unserved
        if served == 0:
            return 0.0
        served_fraction = served / self.offered
        # Independent P² estimators can cross by tiny margins; a running
        # max re-imposes the monotone CDF the interpolation needs.
        values: List[float] = []
        for estimator in self._ladder:
            value = estimator.value()
            values.append(value if not values else max(value, values[-1]))
        quantiles = list(zip(values, self._LADDER))
        # CDF estimate among *served* requests, then scaled by the served
        # fraction so unserved load always counts as unavailable.
        if slo < quantiles[0][0]:
            cdf = 0.0
        elif slo >= quantiles[-1][0]:
            cdf = 1.0
        else:
            cdf = quantiles[0][1]
            for (lo_v, lo_q), (hi_v, hi_q) in zip(quantiles, quantiles[1:]):
                if lo_v <= slo < hi_v:
                    frac = 0.0 if hi_v == lo_v else (slo - lo_v) / (hi_v - lo_v)
                    cdf = lo_q + frac * (hi_q - lo_q)
                    break
                cdf = hi_q
        return cdf * served_fraction
