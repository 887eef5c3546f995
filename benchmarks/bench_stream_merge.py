"""Perf gate: streamed chunk merge vs collect-then-merge.

A worker session travels as one chunk stream folded by
``Recorder.merge_payload``; the fold reads its stream lazily, so a spooled
stream over spill-bounded sinks never has to sit in the parent whole.
This bench compares that against collect-then-merge (every worker's
session, one chunk each, alive in the parent at once) and proves two
claims at fleet width:

* **bounded memory** — the streamed path's Python allocation peak
  (``tracemalloc``) must be *strictly below* the collect-then-merge
  peak at the same width, because it never holds more than one chunk
  plus a bounded sink tail (asserted here, not just recorded);
* **same bytes** — both paths dump byte-identical merged traces (the
  determinism contract survives the transport change).

Wall-time (``seconds_*`` / ``*_wall_second_*`` leaves) is gated loosely
like every other wall-clock number; the record counts and the memory
ordering are deterministic claims.  Scale via ``REPRO_PERF_SCALE``:
``full`` (default, 100 worker sessions) or ``smoke`` (12 for CI).
"""

import json
import os
import timeit
import tracemalloc

from repro.obs import Recorder
from repro.obs.stream import SpillingTraceSink, payload_chunks

from benchmarks.conftest import record_result, run_once

SCALE = os.environ.get("REPRO_PERF_SCALE", "full")
WIDTH = {"full": 100, "smoke": 12}[SCALE]  # worker sessions (fleet width)
TICKS = 40  # spans-with-children per session
CHUNK_EVENTS = 48  # < records/session, so every session streams multiple chunks
SPILL_RECORDS = 64  # < records/session, so worker sinks really spill


def _build_session(index: int, sink=None) -> Recorder:
    """One worker's session: deterministic arithmetic, no RNG, no clocks."""
    rec = Recorder(sink=sink)
    for tick in range(TICKS):
        t = tick * 900.0
        with rec.span("bench.tick", t) as outer:
            outer.set(worker=index, tick=tick)
            with rec.span("bench.replay", t + 5.0) as inner:
                inner.set_end(t + 30.0)
                rec.emit("bench.done", t + 30.0, worker=index)
            outer.set_end(t + 60.0)
        rec.counter("repro.bench.ticks").inc()
    return rec


def _merge_monolithic(tmp_path):
    """Collect-then-merge: every worker session, in one chunk, alive at once."""
    parent = Recorder()
    payloads = [list(_build_session(i).to_payload_chunks()) for i in range(WIDTH)]
    assert all(len(chunks) == 1 for chunks in payloads)
    t0 = timeit.default_timer()
    for chunks in payloads:
        parent.merge_payload(chunks)
    merge_seconds = timeit.default_timer() - t0
    out = tmp_path / "monolithic.jsonl"
    parent.sink.dump(out)
    return out, merge_seconds, len(parent.sink)


def _merge_streamed(tmp_path):
    """Chunk stream: spill-bounded worker sinks, spooled chunks, bounded parent."""
    spool = tmp_path / "spool.chunks.jsonl"
    with open(spool, "w", encoding="utf-8") as fh:
        for i in range(WIDTH):
            sink = SpillingTraceSink(
                tmp_path / f"spill-{i:03d}", max_records=SPILL_RECORDS
            )
            session = _build_session(i, sink=sink)
            for chunk in payload_chunks(session, max_events=CHUNK_EVENTS):
                fh.write(
                    json.dumps(chunk, sort_keys=True, separators=(",", ":")) + "\n"
                )
            sink.cleanup()
    parent = Recorder(
        sink=SpillingTraceSink(tmp_path / "parent", max_records=SPILL_RECORDS)
    )
    n_chunks = 0

    def chunks(fh):
        nonlocal n_chunks
        for line in fh:
            n_chunks += 1
            yield json.loads(line)

    t0 = timeit.default_timer()
    with open(spool, encoding="utf-8") as fh:
        stream = chunks(fh)
        # Each fold stops at its session's final chunk; the next one
        # picks the shared spool up from there.
        for _ in range(WIDTH):
            parent.merge_payload(stream)
    merge_seconds = timeit.default_timer() - t0
    out = tmp_path / "streamed.jsonl"
    parent.sink.dump(out)
    return out, merge_seconds, len(parent.sink), n_chunks


def test_stream_merge(benchmark, tmp_path):
    def workload():
        tracemalloc.start()
        streamed_out, streamed_seconds, streamed_rows, n_chunks = _merge_streamed(
            tmp_path
        )
        _, streamed_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        mono_out, mono_seconds, mono_rows = _merge_monolithic(tmp_path)
        _, mono_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return (
            streamed_out, streamed_seconds, streamed_rows, n_chunks,
            streamed_peak, mono_out, mono_seconds, mono_rows, mono_peak,
        )

    (
        streamed_out, streamed_seconds, streamed_rows, n_chunks,
        streamed_peak, mono_out, mono_seconds, mono_rows, mono_peak,
    ) = run_once(benchmark, workload)

    streamed_bytes = streamed_out.read_bytes()
    mono_bytes = mono_out.read_bytes()
    record_result(
        "stream_merge",
        f"stream vs monolithic merge ({SCALE} scale, {WIDTH} sessions x "
        f"{TICKS} ticks):\n"
        f"  rows merged:     {streamed_rows:8d}  ({n_chunks} chunks)\n"
        f"  streamed merge:  {streamed_seconds * 1e3:8.2f} ms  "
        f"peak {streamed_peak / 1024:10.1f} KiB\n"
        f"  monolithic merge:{mono_seconds * 1e3:8.2f} ms  "
        f"peak {mono_peak / 1024:10.1f} KiB\n"
        f"  peak ratio (streamed/monolithic): {streamed_peak / mono_peak:.3f}\n"
        f"  byte-identical:  {streamed_bytes == mono_bytes}",
        data={
            "scale": {
                "width": WIDTH,
                "ticks": TICKS,
                "chunk_events": CHUNK_EVENTS,
                "spill_records": SPILL_RECORDS,
            },
            "n_rows": streamed_rows,
            "n_chunks": n_chunks,
            "peak_kb_streamed": streamed_peak / 1024,
            "peak_kb_monolithic": mono_peak / 1024,
            "seconds_merge_streamed": streamed_seconds,
            "seconds_merge_monolithic": mono_seconds,
            "throughput_rows_per_wall_second_streamed": (
                streamed_rows / streamed_seconds if streamed_seconds else 0.0
            ),
            "throughput_rows_per_wall_second_monolithic": (
                mono_rows / mono_seconds if mono_seconds else 0.0
            ),
        },
    )
    # The acceptance claims, asserted (not merely archived):
    assert streamed_bytes == mono_bytes
    assert streamed_rows == mono_rows == WIDTH * TICKS * 3
    assert n_chunks > WIDTH  # every session really streamed multiple chunks
    assert streamed_peak < mono_peak  # bounded memory beats collect-then-merge
