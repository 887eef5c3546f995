"""The streaming obs pipeline: spilling sinks, payload chunks, heartbeats,
and the resource probe (docs/OBSERVABILITY.md §v4)."""

import json

import pytest

from repro.obs import Recorder, RunManifest
from repro.obs.metrics import ObservabilityError
from repro.obs.stream import (
    CHUNK_SCHEMA_VERSION,
    NULL_PROBE,
    ResourceProbe,
    SpillingTraceSink,
    campaign_progress,
    campaign_summary,
    payload_chunks,
    peak_rss_kb,
    read_heartbeats,
    write_heartbeat,
)


def _session(seed=1, n=10, sink=None):
    rec = Recorder(
        manifest=RunManifest(scenario="s", seed=seed, config_hash="ab"), sink=sink
    )
    for i in range(n):
        with rec.span("outer", float(i)) as sp:
            sp.set(i=i)
            with rec.span("inner", float(i) + 0.25):
                rec.emit("ping", float(i) + 0.5, i=i)
    return rec


class TestSpillingTraceSink:
    def test_rejects_nonpositive_bound(self, tmp_path):
        with pytest.raises(ObservabilityError):
            SpillingTraceSink(tmp_path, max_records=0)

    def test_spills_beyond_bound_and_preserves_bytes(self, tmp_path):
        plain = _session(sink=None)
        spilled = _session(sink=SpillingTraceSink(tmp_path / "sp", max_records=7))
        assert spilled.sink.spilled_segments > 0
        # In-memory tail stays bounded by the spill threshold.
        assert len(spilled.sink._tail) <= 7
        assert spilled.sink.to_jsonl() == plain.sink.to_jsonl()
        assert len(spilled.sink) == len(plain.sink)
        assert spilled.sink.span_count == sum(
            1 for r in plain.sink.records if r["type"] == "span"
        )

    def test_iter_records_matches_materialized(self, tmp_path):
        rec = _session(sink=SpillingTraceSink(tmp_path / "sp", max_records=5))
        assert list(rec.sink.iter_records()) == rec.sink.records

    def test_dump_streams_same_bytes(self, tmp_path):
        rec = _session(sink=SpillingTraceSink(tmp_path / "sp", max_records=5))
        target = tmp_path / "t.jsonl"
        rec.sink.dump(target)
        assert target.read_text(encoding="utf-8") == rec.sink.to_jsonl()

    def test_cleanup_removes_segments(self, tmp_path):
        rec = _session(sink=SpillingTraceSink(tmp_path / "sp", max_records=5))
        assert list((tmp_path / "sp").glob("segment-*.jsonl"))
        rec.sink.cleanup()
        assert not list((tmp_path / "sp").glob("segment-*.jsonl"))
        assert len(rec.sink) == 0


class TestPayloadChunks:
    def test_chunked_merge_equals_monolithic(self, tmp_path):
        mono, chunked = Recorder(), Recorder()
        source_a, source_b = _session(seed=1), _session(seed=2, n=7)
        for source in (source_a, source_b):
            single = list(source.to_payload_chunks())
            assert len(single) == 1  # the whole session in one chunk
            mono.merge_payload(single)
            chunked.merge_payload(source.to_payload_chunks(max_events=5))
        assert chunked.sink.to_jsonl() == mono.sink.to_jsonl()
        assert chunked.metrics.to_json() == mono.metrics.to_json()

    def test_spilled_source_chunks_identically(self, tmp_path):
        plain = _session(seed=3)
        spilled = _session(seed=3, sink=SpillingTraceSink(tmp_path, max_records=4))
        a = [c for c in payload_chunks(plain, max_events=6)]
        b = [c for c in payload_chunks(spilled, max_events=6)]
        assert a == b

    def test_rejects_nonpositive_chunk_size(self):
        rec = _session()
        with pytest.raises(ObservabilityError):
            list(payload_chunks(rec, max_events=0))

    def test_rejects_open_spans(self):
        rec = Recorder()
        rec.span("open", 0.0).__enter__()
        with pytest.raises(ObservabilityError):
            list(payload_chunks(rec))

    def test_empty_recorder_yields_single_final_chunk(self):
        chunks = list(payload_chunks(Recorder(), max_events=4))
        assert len(chunks) == 1
        assert chunks[0]["final"] is True
        assert chunks[0]["schema"] == CHUNK_SCHEMA_VERSION
        assert chunks[0]["records"] == []

    def test_truncated_or_inconsistent_stream_is_rejected(self):
        chunks = list(_session().to_payload_chunks(max_events=5))
        assert len(chunks) > 2
        first = chunks[0]
        malformed = {
            "ended before its final chunk": chunks[:-1],  # final chunk dropped
            "out of order": [first, *chunks[2:]],  # skipped seq 1
            "integrity failure": [
                {**first, "span_id_total": first["span_id_total"] + 1},
                *chunks[1:],
            ],
            "unsupported chunk schema": [{**first, "schema": 0}, *chunks[1:]],
        }
        for message, stream in malformed.items():
            with pytest.raises(ObservabilityError, match=message):
                Recorder().merge_payload(iter(stream))


class TestHeartbeats:
    def test_roundtrip_and_summary(self, tmp_path):
        progress = tmp_path / "progress"
        for job in (1, 0):
            write_heartbeat(
                progress, job, status="start", scenario=f"s{job}", protocol="p"
            )
            write_heartbeat(
                progress, job, status="chunk", seq=0,
                records=10, spans=9, events=1, sim_time=5.0,
            )
            write_heartbeat(
                progress, job, status="done", chunks=1,
                records=10, spans=9, events=1, sim_time=5.0,
            )
        beats = read_heartbeats(progress)
        assert sorted(beats) == [0, 1]
        rows = campaign_progress(progress)
        assert [r["job"] for r in rows] == [0, 1]
        assert all(r["status"] == "done" for r in rows)
        summary = campaign_summary(progress)
        assert summary["complete"] is True
        assert summary["n_jobs"] == 2
        assert summary["totals"]["records"] == 20

    def test_incomplete_job_flips_complete(self, tmp_path):
        progress = tmp_path / "progress"
        write_heartbeat(progress, 0, status="start", scenario="s", protocol="p")
        summary = campaign_summary(progress)
        assert summary["complete"] is False
        assert summary["jobs"][0]["status"] == "running"

    def test_empty_dir_is_not_complete(self, tmp_path):
        summary = campaign_summary(tmp_path)
        assert summary["jobs"] == []
        assert summary["complete"] is False

    def test_torn_lines_are_tolerated(self, tmp_path):
        progress = tmp_path / "progress"
        write_heartbeat(progress, 0, status="start", scenario="s", protocol="p")
        path = progress / "job-00000.jsonl"
        path.write_text(path.read_text(encoding="utf-8") + '{"torn', encoding="utf-8")
        assert len(read_heartbeats(progress)[0]) == 1


class TestResourceProbe:
    def test_report_shape_and_quarantine(self, tmp_path):
        probe = ResourceProbe()
        with probe.stage("merge"):
            pass
        probe.add_bytes("chunk_bytes", 128)
        probe.add_count("chunks", 3)
        probe.sample_rss("parent")
        probe.add_worker({"job": 0, "peak_rss_kb": 10})
        report = probe.report()
        assert report["schema"] == 1
        assert report["stages"]["merge"]["calls"] == 1
        assert report["bytes"]["chunk_bytes"] == 128
        assert report["counts"]["chunks"] == 3
        target = tmp_path / "r.resources.json"
        probe.dump(target)
        data = json.loads(target.read_text(encoding="utf-8"))
        # Wall-clock lives here and ONLY here (R018): the key must exist so
        # the quarantine is real, not vacuous.
        assert "wall_seconds" in data["stages"]["merge"]

    def test_null_probe_is_inert(self):
        with NULL_PROBE.stage("x"):
            NULL_PROBE.add_bytes("b", 1)
            NULL_PROBE.add_count("c")
            NULL_PROBE.sample_rss("p")
            NULL_PROBE.add_worker({})
        assert NULL_PROBE.report() == {}

    def test_peak_rss_is_positive_on_linux(self):
        rss = peak_rss_kb()
        assert rss is None or rss > 0
