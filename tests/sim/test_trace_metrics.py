"""Unit tests for tracing and metrics."""

import pytest

from repro.sim import (
    AvailabilityMeter,
    LatencyRecorder,
    TraceRecord,
    Tracer,
    Simulator,
)


class TestTracer:
    def test_emit_records_time_kind_subject(self):
        sim = Simulator()
        tracer = Tracer(sim)

        def proc():
            yield sim.timeout(2.0)
            tracer.emit("fault", "disk0", {"factor": 0.5})

        sim.process(proc())
        sim.run()
        [rec] = tracer.records
        assert rec.time == 2.0
        assert rec.kind == "fault"
        assert rec.subject == "disk0"
        assert rec.detail == {"factor": 0.5}

    def test_select_filters(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.emit("fault", "disk0")
        tracer.emit("fault", "disk1")
        tracer.emit("repair", "disk0")
        assert tracer.count(kind="fault") == 2
        assert tracer.count(subject="disk0") == 2
        assert tracer.count(kind="fault", subject="disk0") == 1
        assert tracer.count(kind="nothing") == 0

    def test_select_predicate(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.emit("x", "s", 1)
        tracer.emit("x", "s", 5)
        assert len(tracer.select(predicate=lambda r: r.detail > 3)) == 1

    def test_disabled_tracer_drops_records(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=False)
        tracer.emit("fault", "disk0")
        assert len(tracer) == 0

    def test_clear(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.emit("a", "b")
        tracer.clear()
        assert len(tracer) == 0


class TestLatencyRecorder:
    def test_summary_basic(self):
        rec = LatencyRecorder()
        for x in [1.0, 2.0, 3.0, 4.0, 5.0]:
            rec.record(x)
        s = rec.summary()
        assert s.count == 5
        assert s.mean == pytest.approx(3.0)
        assert s.minimum == 1.0
        assert s.maximum == 5.0
        assert s.p50 == pytest.approx(3.0)

    def test_quantile_interpolates(self):
        rec = LatencyRecorder()
        rec.record(0.0)
        rec.record(10.0)
        assert rec.quantile(0.5) == pytest.approx(5.0)

    def test_empty_summary_is_zeros(self):
        s = LatencyRecorder().summary()
        assert s.count == 0 and s.mean == 0.0

    def test_bad_inputs_rejected(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.record(-1.0)
        with pytest.raises(ValueError):
            rec.quantile(1.5)


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
