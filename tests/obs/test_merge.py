"""Session merge primitives: payload capture, renumbering, composition.

The parallel experiment layer's determinism rests on one identity: running
scenario A then scenario B in one session produces the same exports as
running each in an isolated session and merging their chunk streams in
order.  These tests state that identity directly on synthetic recordings.
"""

import pytest

from repro.obs import ObservabilityError, Recorder
from repro.obs.trace import resume, start, stop


def record_block(rec: Recorder, base: float, label: str) -> None:
    """A deterministic little recording: nested spans, events, metrics."""
    with rec.span("outer", base, label=label):
        rec.emit("tick", base + 1.0, label=label)
        with rec.span("inner", base + 2.0):
            rec.counter("repro.test.events").inc(3, time=base + 2.0)
        rec.gauge("repro.test.depth").set(base, time=base + 3.0)
        rec.histogram("repro.test.lat").observe(base / 10.0, time=base + 4.0)


def exports(rec: Recorder) -> tuple[str, str, str]:
    return rec.sink.to_jsonl(), rec.metrics.to_json(), rec.series.to_json()


class TestSessionMerge:
    def test_merge_equals_serial_session(self):
        serial = Recorder()
        record_block(serial, 100.0, "a")
        record_block(serial, 700.0, "b")

        parent = Recorder()
        record_block(parent, 100.0, "a")
        worker = Recorder()
        record_block(worker, 700.0, "b")
        parent.merge_payload(worker.to_payload_chunks())

        assert exports(parent) == exports(serial)

    def test_merge_renumbers_span_references(self):
        parent = Recorder()
        record_block(parent, 0.0, "a")  # consumes span ids 1..2
        worker = Recorder()
        record_block(worker, 50.0, "b")
        parent.merge_payload(worker.to_payload_chunks())
        span_ids = [r["id"] for r in parent.sink.records if r["type"] == "span"]
        assert sorted(span_ids) == [1, 2, 3, 4]
        # The merged event points at the renumbered enclosing span.
        merged_events = [
            r for r in parent.sink.records if r["type"] == "event" and r["time"] == 51.0
        ]
        assert merged_events[0]["span"] in (3, 4)

    def test_merge_order_sensitive_fields(self):
        parent = Recorder()
        parent.gauge("repro.test.level").set(5.0, time=10.0)
        worker = Recorder()
        worker.gauge("repro.test.level").set(2.0, time=20.0)
        parent.merge_payload(worker.to_payload_chunks())
        snap = parent.metrics.snapshot()["repro.test.level"]
        assert snap == {"kind": "gauge", "value": 2.0, "updates": 2, "min": 2.0, "max": 5.0}

    def test_capture_with_open_span_rejected(self):
        rec = Recorder()
        span = rec.span("open", 1.0)
        with pytest.raises(ObservabilityError):
            list(rec.to_payload_chunks())
        span.__exit__(None, None, None)
        assert list(rec.to_payload_chunks())[0]["span_id_total"] == 1

    def test_resume_restores_stopped_session(self):
        rec = start()
        try:
            stopped = stop()
            assert resume(stopped) is stopped
            with pytest.raises(ObservabilityError):
                resume(Recorder())
        finally:
            stop()

    def test_empty_payload_merge_is_noop(self):
        parent = Recorder()
        record_block(parent, 0.0, "a")
        before = exports(parent)
        parent.merge_payload(Recorder().to_payload_chunks())
        assert exports(parent) == before
