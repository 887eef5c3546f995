"""Algebra of ``Recorder.merge_payload`` over ``to_payload_chunks`` streams.

A worker session re-enters the parent recorder as one chunk stream, cut
at any ``max_events``, without changing a byte of the export.  These
properties pin the algebra that makes that safe:

* merging an **empty** session's stream is a no-op, span-id counter
  included;
* merge is **associative** over sessions — folding (A, B) then C equals
  folding A then (B ⊕ C re-exported), record for record;
* ``reserve_span_ids`` interleaved with merges keeps offsets exact: the
  id counter advances by exactly (reserved + merged spans) and merged
  span ids never collide;
* every ``max_events`` folds to the bytes of a single-chunk stream.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Recorder


def _session(seed, n):
    """A deterministic little session shaped by (seed, n)."""
    rec = Recorder()
    for i in range(n):
        t = float(i)
        with rec.span("outer", t) as sp:
            sp.set(seed=seed, i=i)
            if (seed + i) % 2:
                with rec.span("inner", t + 0.25):
                    rec.emit("ping", t + 0.5, seed=seed)
            rec.counter("repro.test.work").inc()
    return rec


def _next_span_id(rec):
    """Probe (and consume) the recorder's next span id."""
    return rec.reserve_span_ids(1)


session_shapes = st.tuples(st.integers(0, 7), st.integers(0, 5))


@given(shape=st.tuples(st.integers(0, 7), st.integers(1, 5)))
@settings(max_examples=25, deadline=None)
def test_empty_payload_merge_is_a_noop(shape):
    seed, n = shape
    target = _session(seed, n)
    control = _session(seed, n)
    target.merge_payload(Recorder().to_payload_chunks())
    assert target.sink.to_jsonl() == control.sink.to_jsonl()
    assert target.metrics.to_json() == control.metrics.to_json()
    assert target.series.to_json() == control.series.to_json()
    # The span-id counter did not move either.
    assert _next_span_id(target) == _next_span_id(control)


@given(shapes=st.lists(session_shapes, min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_merge_is_associative_over_sessions(shapes):
    payloads = [list(_session(seed, n).to_payload_chunks()) for seed, n in shapes]

    left = Recorder()  # (A ⊕ B) ⊕ C
    for payload in payloads:
        left.merge_payload(payload)

    # A ⊕ (B ⊕ C): fold B and C into an intermediate recorder first, then
    # merge its re-exported chunk stream after A.
    inner = Recorder()
    inner.merge_payload(payloads[1])
    inner.merge_payload(payloads[2])
    right = Recorder()
    right.merge_payload(payloads[0])
    right.merge_payload(inner.to_payload_chunks())

    assert left.sink.to_jsonl() == right.sink.to_jsonl()
    assert left.metrics.to_json() == right.metrics.to_json()
    assert left.series.to_json() == right.series.to_json()


@given(
    steps=st.lists(
        st.one_of(session_shapes, st.integers(1, 9).map(lambda k: ("reserve", k))),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=25, deadline=None)
def test_interleaved_reservations_keep_offsets_exact(steps):
    target = Recorder()
    consumed = 0  # span ids handed out so far, by reservation or merge
    for step in steps:
        if step[0] == "reserve":
            k = step[1]
            first = target.reserve_span_ids(k)
            assert first == consumed + 1  # ids start at 1
            consumed += k
        else:
            seed, n = step
            chunks = list(_session(seed, n).to_payload_chunks())
            spans_in = sum(
                1 for c in chunks for r in c["records"] if r["type"] == "span"
            )
            target.merge_payload(chunks)
            consumed += spans_in
    assert _next_span_id(target) == consumed + 1
    merged_ids = [r["id"] for r in target.sink.records if r["type"] == "span"]
    assert len(merged_ids) == len(set(merged_ids))
    assert all(0 < i <= consumed for i in merged_ids)


@given(shape=session_shapes, max_events=st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_chunked_merge_equals_monolithic_merge(shape, max_events):
    seed, n = shape
    single = list(_session(seed, n).to_payload_chunks())
    assert len(single) == 1  # the whole session in one (monolithic) chunk
    mono, chunked = Recorder(), Recorder()
    mono.merge_payload(single)
    chunked.merge_payload(_session(seed, n).to_payload_chunks(max_events=max_events))
    assert chunked.sink.to_jsonl() == mono.sink.to_jsonl()
    assert chunked.metrics.to_json() == mono.metrics.to_json()
    assert chunked.series.to_json() == mono.series.to_json()
    assert _next_span_id(chunked) == _next_span_id(mono)
