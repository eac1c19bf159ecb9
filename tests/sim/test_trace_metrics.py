"""Unit tests for telemetry records and metrics."""

import numpy as np
import pytest

from repro.sim import AvailabilityMeter, LatencySummary, TraceRecord


class TestLatencySummary:
    def test_summary_basic(self):
        s = LatencySummary.of([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.count == 5
        assert s.mean == pytest.approx(3.0)
        assert s.maximum == 5.0
        assert s.p50 == pytest.approx(3.0)

    def test_quantile_interpolates(self):
        assert LatencySummary.of([0.0, 10.0]).p50 == pytest.approx(5.0)

    def test_empty_summary_is_zeros(self):
        assert LatencySummary.of([]) == LatencySummary(0, 0.0, 0.0, 0.0, 0.0)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="latency must be >= 0"):
            LatencySummary.of([-1.0])

    def test_negative_rejected_both_modes(self):
        # Scorecards pass plain lists (E12, E23) or float64 arrays (E26,
        # E27, E28); a negative inside either is refused by its value.
        for batch in ([0.2, -0.1, 0.5], np.array([0.2, -0.1, 0.5])):
            with pytest.raises(ValueError, match=r"latency must be >= 0, got -0\.1"):
                LatencySummary.of(batch)


class TestAvailabilityMeter:
    def test_fraction_within_slo(self):
        meter = AvailabilityMeter(slo=1.0)
        meter.record(0.5)
        meter.record(0.9)
        meter.record(2.0)
        meter.record(None)  # never served
        assert meter.availability() == pytest.approx(0.5)

    def test_empty_is_fully_available(self):
        assert AvailabilityMeter(slo=1.0).availability() == 1.0

    def test_bad_slo_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityMeter(slo=0.0)

    def test_negative_response_rejected(self):
        meter = AvailabilityMeter(slo=1.0)
        with pytest.raises(ValueError):
            meter.record(-0.1)


class TestTraceRecordSlots:
    def test_no_dict_per_record(self):
        """Traces allocate one record per event; slots keep them small
        and reject stray attribute writes.  (On some CPython 3.11
        builds a frozen+slots dataclass raises TypeError rather than
        FrozenInstanceError — gh-90562 — either way the write fails.)"""
        rec = TraceRecord(0.0, "kind", "subject")
        assert not hasattr(rec, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            rec.extra = 1
        with pytest.raises((AttributeError, TypeError)):
            rec.kind = "other"

    def test_record_still_pickles_and_compares(self):
        import pickle

        rec = TraceRecord(1.0, "io", "disk0", detail=("read", 7))
        assert pickle.loads(pickle.dumps(rec)) == rec
