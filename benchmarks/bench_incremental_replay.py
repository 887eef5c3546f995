"""Perf gate: incremental what-if ledger vs full replay per streamed row.

``IncrementalReplay`` exists so the streaming savings ledger does not pay a
full-window ``QueryReplay`` for every QUERY_HISTORY row that lands: the
frozen-prefix coverage folds make one observe+materialize cycle O(delta +
buckets).  This bench streams single-row deltas into a 10k-query window and
holds the incremental path to **sub-millisecond per row** and a **≥10x
speedup** over recomputing the full replay from scratch per row (the honest
streaming baseline: the replay's history memo keys on list identity, which
a stream invalidates on every row).

Exactness is asserted in-bench before anything is timed — speed from a
wrong answer would be worthless.

Scale comes from ``REPRO_PERF_SCALE``: ``full`` (default, 10k-query window,
floors asserted on machines with ≥2 usable cores) or ``smoke`` (1k, numbers
recorded, floors not asserted — tiny windows under-use the folds).
"""

import os
import timeit

from repro.common.simtime import DAY, Window
from repro.costmodel.incremental import IncrementalReplay
from repro.costmodel.replay import QueryReplay
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import WarehouseSize

from benchmarks.bench_perf_replay import fitted_replay, synthetic_records
from benchmarks.conftest import record_result, run_once

SCALE = os.environ.get("REPRO_PERF_SCALE", "full")
N_QUERIES = {"full": 10_000, "smoke": 1_000}[SCALE]
#: Rows streamed while timing (the tail of the window).
N_DELTAS = {"full": 200, "smoke": 50}[SCALE]
UPDATE_CEILING_SECONDS = 1e-3
SPEEDUP_FLOOR = 10.0


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def test_incremental_replay(benchmark):
    cores = _usable_cores()
    records = synthetic_records(N_QUERIES)
    window = Window(0.0, 6.0 * DAY)
    config = WarehouseConfig(size=WarehouseSize.S, auto_suspend_seconds=120.0)
    replay = fitted_replay(records, vectorized=True)
    feed = sorted(records, key=lambda r: r.end_time)
    warm, deltas = feed[:-N_DELTAS], feed[-N_DELTAS:]

    def build_ledger() -> IncrementalReplay:
        ledger = IncrementalReplay(
            replay.latency_model,
            replay.gap_model,
            replay.cluster_predictor,
            window,
        )
        for record in warm:
            ledger.observe(record)
        return ledger

    # Exactness first: the streamed ledger must equal a fresh full replay
    # bit for bit after the whole feed, or the timing below means nothing.
    checked = build_ledger()
    for record in deltas:
        checked.observe(record)
    assert checked.result(config) == checked.full_replay(config)

    exact = build_ledger()
    exact.result(config)  # warm the per-config folded state

    fresh = QueryReplay(
        replay.latency_model,
        replay.gap_model,
        replay.cluster_predictor,
        vectorized=True,
    )
    base = list(warm)

    def stream_incremental():
        for record in deltas:
            exact.observe(record)
            exact.result(config)

    def stream_full():
        rows = base
        for record in deltas:
            # A stream hands the replay a fresh list every row — the memo
            # misses, as it does in production telemetry fetches.
            rows = rows + [record]
            fresh.replay(rows, config, window)

    def compare():
        t_inc = timeit.timeit(stream_incremental, number=1)
        t_full = timeit.timeit(stream_full, number=1)
        return t_inc, t_full

    t_inc, t_full = run_once(benchmark, compare)
    per_row_inc = t_inc / N_DELTAS
    per_row_full = t_full / N_DELTAS
    speedup = t_full / t_inc
    record_result(
        "incremental_replay",
        f"single-row deltas into a {N_QUERIES}-query window "
        f"({SCALE} scale, {N_DELTAS} rows):\n"
        f"  incremental:    {per_row_inc * 1e6:9.1f} us/row\n"
        f"  full recompute: {per_row_full * 1e6:9.1f} us/row\n"
        f"  speedup:        {speedup:9.1f}x",
        data={
            "n_queries": N_QUERIES,
            "n_deltas": N_DELTAS,
            "cores": cores,
            "seconds_incremental": t_inc,
            "seconds_full": t_full,
            "speedup": speedup,
        },
    )
    if SCALE == "full" and cores >= 2:
        assert per_row_inc < UPDATE_CEILING_SECONDS, (
            f"incremental update+materialize took {per_row_inc * 1e6:.0f} us/row "
            f"(ceiling {UPDATE_CEILING_SECONDS * 1e6:.0f} us)"
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"incremental ledger only {speedup:.1f}x faster than full "
            f"recompute (floor {SPEEDUP_FLOOR}x)"
        )
