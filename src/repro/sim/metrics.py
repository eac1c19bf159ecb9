"""Performance metrics for simulated systems.

The paper's benefits argument (Section 3.3) is framed in terms of
*availability* as defined by Gray & Reuter: "the fraction of the offered
load that is processed with acceptable response times."
:class:`AvailabilityMeter` implements exactly that definition;
:class:`LatencySummary` is the latency view the experiments report.

Exact statistics
----------------

The availability meter keeps exact counts.  Latency statistics are
folded from whole sample arrays in one numpy pass:
:meth:`StreamingMoments.of` builds the Welford state from every sample,
and :class:`ExactQuantile` is one ``np.quantile`` over every sample.
:meth:`LatencySummary.of` is those two folds, so a scorecard cell, a
soak window and a trace line compute the same numbers the same way.
Nothing here estimates: a statistic is exact, or the program does not
report it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "AvailabilityMeter",
    "LatencySummary",
    "StreamingMoments",
    "ExactQuantile",
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
        combined stream to float rounding (``tests/sim/test_lane_merge.py``
        pins 1e-9 against exact recomputation).  Returns ``self`` so folds
        over many recorders chain: ``reduce(lambda a, b: a.merge(b), parts)``.
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
        ulps).  Soak windows, trace run-end records and
        :meth:`LatencySummary.of` use this.
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


class ExactQuantile:
    """One q-quantile computed from every sample with ``np.quantile``.

    Scorecards read it with :meth:`value`; trace ``run-end`` and
    ``window`` records carry :meth:`to_dict`, and replay rebuilds it
    with :meth:`from_dict`.  The definition is numpy's default
    ``"linear"`` method: interpolate between the order statistics around
    position ``q * (n - 1)``.
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

        An empty sample set reports 0.0 for every ``q``.
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


@dataclass(frozen=True)
class LatencySummary:
    """The latency statistics a scorecard reports, from every sample."""

    count: int
    mean: float
    maximum: float
    p50: float
    p99: float

    @classmethod
    def of(cls, samples) -> "LatencySummary":
        """Summarize a whole sample array (any float sequence or array).

        Count, mean and maximum come from :meth:`StreamingMoments.of`,
        p50 and p99 from :meth:`ExactQuantile.of`: the folds soak windows
        and trace lines carry.  An empty set summarizes to zeros; a
        negative latency raises ``ValueError``.
        """
        values = np.asarray(samples, dtype=np.float64)
        if not values.size:
            return cls(0, 0.0, 0.0, 0.0, 0.0)
        moments = StreamingMoments.of(values)
        if moments.minimum < 0:
            raise ValueError(f"latency must be >= 0, got {moments.minimum}")
        p50, p99 = ExactQuantile.of(values, (0.5, 0.99))
        return cls(moments.count, moments.mean, moments.maximum,
                   p50.value(), p99.value())


class AvailabilityMeter:
    """Gray & Reuter availability: fraction of load served within an SLO.

    Each offered request is recorded with its response time (or as
    *unserved* if it never completed); availability is the fraction whose
    response time was at most ``slo``.  Three exact counters hold the
    whole state, so the meter costs O(1) memory at any request count.
    """

    def __init__(self, slo: float, name: str = "availability"):
        if slo <= 0:
            raise ValueError(f"slo must be > 0, got {slo}")
        self.slo = slo
        self.name = name
        self.offered = 0
        self.within_slo = 0
        self.unserved = 0

    def record(self, response_time: Optional[float]) -> None:
        """Record one offered request.

        ``response_time`` of ``None`` means the request was never served
        (it still counts against availability).
        """
        self.offered += 1
        if response_time is None:
            self.unserved += 1
            return
        if response_time < 0:
            raise ValueError(f"response time must be >= 0, got {response_time}")
        if response_time <= self.slo:
            self.within_slo += 1

    def availability(self) -> float:
        """Fraction of offered load served within the SLO (in [0, 1])."""
        if self.offered == 0:
            return 1.0
        return self.within_slo / self.offered
