"""Exactness and durability properties of the incremental what-if ledger.

:mod:`repro.costmodel.incremental` promises:

* **exactness** — after any interleaving of appends (any arrival order),
  window-start evictions and config changes, ``result(config)`` is
  *bit-identical* to a fresh full :class:`QueryReplay` over the retained
  rows and current window, every :class:`ReplayResult` field;
* **durability** — the canonical ``state_dict`` round-trips byte-identically
  through a checkpoint + re-feed restore.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, RecoveryError
from repro.common.simtime import HOUR, Window
from repro.costmodel.clusters import ClusterCountPredictor
from repro.costmodel.gaps import GapModel
from repro.costmodel.incremental import IncrementalReplay
from repro.costmodel.latency import LatencyScalingModel
from repro.durability.codec import state_checksum
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize

HORIZON = 4 * HOUR

#: (arrival, duration, template id, size, cache hit, chained flag) rows.
#: Arrivals are drawn on a 0.1 s lattice and deduplicated: equal-arrival tie
#: order between a full replay's stable sort and streaming insertion is
#: unspecified, and real telemetry timestamps are effectively distinct.
record_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=int((HORIZON - 120.0) * 10)),
        st.floats(min_value=0.2, max_value=900.0),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([WarehouseSize.S, WarehouseSize.M, WarehouseSize.L]),
        st.floats(min_value=0.0, max_value=1.0),
        st.booleans(),
    ),
    min_size=0,
    max_size=50,
    unique_by=lambda row: row[0],
)

CONFIGS = [
    WarehouseConfig(size=WarehouseSize.S, auto_suspend_seconds=120.0),
    WarehouseConfig(
        size=WarehouseSize.M,
        auto_suspend_seconds=600.0,
        max_clusters=4,
        max_concurrency=4,
    ),
    WarehouseConfig(size=WarehouseSize.XS, auto_suspend_seconds=0.0),
    WarehouseConfig(
        size=WarehouseSize.L,
        auto_suspend_seconds=45.0,
        min_clusters=2,
        max_clusters=6,
    ),
]

S, M, L = WarehouseSize.S, WarehouseSize.M, WarehouseSize.L

#: Row sets that broke the removed approximate (interval) ledger mode, kept
#: as pinned inputs for the exact ledger.  Eviction with never-suspend
#: bursts (auto_suspend_seconds=0 after two window-start slides):
NEVER_SUSPEND_EVICTION_ROWS = [
    (6002, 1.0, 0, S, 0.0, False), (3000, 1.0, 0, S, 0.0, False),
    (43, 1.0, 0, S, 0.0, False), (52, 1.0, 0, S, 0.0, False),
    (6169, 1.0, 0, S, 0.0, False), (6161, 1.0, 0, S, 0.0, False),
    (69, 1.0, 0, S, 0.0, False), (272, 1.0, 0, S, 0.0, False),
    (6160, 1.0, 0, S, 0.0, False), (51214, 0.7, 0, S, 0.0, False),
    (5, 4.0, 0, S, 0.0, False), (78, 1.0, 0, S, 0.0, False),
    (1260, 1.0, 0, S, 0.0, False), (4, 661.8329363752943, 0, S, 0.0, False),
    (3, 1.0, 0, S, 0.0, False), (2, 1.0, 0, S, 0.0, False),
    (3786, 123.0, 0, S, 0.0, False), (5316, 1.0, 0, S, 0.0, False),
    (62, 1.0, 0, S, 0.0, False), (54, 2.0, 3, L, 1.0, False),
    (1, 1.0, 0, S, 0.0, False), (6001, 64.0, 3, L, 1.0, True),
    (0, 1.0, 0, S, 0.0, False),
]
#: Chained rows whose shifted arrivals cascade through out-of-order rows:
CHAINED_CASCADE_ROWS = [
    (6002, 1.0, 0, S, 0.0, False), (3000, 1.0, 0, S, 0.0, False),
    (87, 7.0, 0, S, 0.0, False), (156, 1.0, 0, S, 0.0, False),
    (6169, 1.0, 0, S, 0.0, False), (6172, 1.0, 0, S, 0.0, False),
    (78, 1.0, 0, S, 0.0, False), (950, 1.0, 0, S, 0.0, False),
    (6181, 363.8751018100892, 0, S, 0.0, False),
    (51214, 0.7, 0, S, 0.0, False),
    (80, 816.892259291494, 0, S, 0.0, False),
    (79, 20.0, 0, S, 0.0, False), (1260, 1.0, 0, S, 0.0, False),
    (552, 661.8329363752943, 0, S, 0.0, False),
    (0, 1.0, 0, S, 0.0, False), (2, 1.0, 0, S, 0.0, False),
    (3786, 123.0, 0, S, 0.0, False), (5316, 1.0, 0, S, 0.0, False),
    (165, 1.0, 0, S, 0.0, False), (709, 1.0, 0, S, 0.0, False),
    (1, 3.0, 0, S, 0.0, False), (6001, 70.0, 0, S, 0.0, True),
    (2231, 106.04905683804654, 1, L, 0.6631559161610622, True),
    (280, 785.5668722969249, 1, L, 0.5364395775537713, True),
    (11, 121.54769036738591, 3, L, 0.9483484210428919, True),
    (1901, 683.9089348944995, 1, M, 2.220446049250313e-16, True),
    (24, 322.111731695001, 1, M, 0.7337844210831045, False),
]


def to_records(rows) -> list[QueryRecord]:
    return [
        QueryRecord(
            query_id=i,
            warehouse="WH",
            text_hash=f"x{i}",
            template_hash=f"t{template}",
            arrival_time=arrival_tenths / 10.0,
            start_time=arrival_tenths / 10.0,
            end_time=arrival_tenths / 10.0 + duration,
            execution_seconds=duration,
            warehouse_size=size,
            cache_hit_ratio=cache_hit,
            cluster_number=1,
            chained=chained,
            completed=True,
        )
        for i, (arrival_tenths, duration, template, size, cache_hit, chained) in (
            enumerate(rows)
        )
    ]


def fitted_models(records):
    return (
        LatencyScalingModel().fit(records),
        GapModel().fit(records),
        ClusterCountPredictor(),
    )


def assert_results_identical(inc, full):
    assert inc.credits == full.credits
    assert inc.active_seconds == full.active_seconds
    assert inc.cluster_seconds == full.cluster_seconds
    assert inc.n_queries == full.n_queries
    assert inc.n_bursts == full.n_bursts
    assert inc.avg_latency == full.avg_latency
    assert inc.p99_latency == full.p99_latency
    assert inc.hourly_credits == full.hourly_credits


class TestExactMode:
    @given(record_rows, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_streaming_appends_bit_identical(self, rows, seed):
        """Rows fed in arbitrary order, checked against a fresh full replay
        under several configs at every step boundary."""
        records = to_records(rows)
        latency, gaps, clusters = fitted_models(records)
        inc = IncrementalReplay(latency, gaps, clusters, Window(0.0, HORIZON))
        rng = random.Random(seed)
        feed = records[:]
        rng.shuffle(feed)
        for i, record in enumerate(feed):
            inc.observe(record)
            if i % 7 == 6 or i == len(feed) - 1:
                config = rng.choice(CONFIGS)
                assert_results_identical(inc.result(config), inc.full_replay(config))
        if not records:
            config = rng.choice(CONFIGS)
            assert_results_identical(inc.result(config), inc.full_replay(config))

    @given(record_rows, st.integers(min_value=0, max_value=2**32 - 1))
    @example(rows=NEVER_SUSPEND_EVICTION_ROWS, seed=55771449)
    @example(rows=CHAINED_CASCADE_ROWS, seed=2328313)
    @settings(max_examples=60, deadline=None)
    def test_eviction_and_config_interleaving(self, rows, seed):
        """Appends, window-start slides and config switches interleaved."""
        records = to_records(rows)
        latency, gaps, clusters = fitted_models(records)
        inc = IncrementalReplay(latency, gaps, clusters, Window(0.0, HORIZON))
        rng = random.Random(seed)
        feed = sorted(records, key=lambda r: r.end_time)
        for i, record in enumerate(feed):
            if record.arrival_time < inc.window.start:
                continue
            inc.observe(record)
            roll = rng.random()
            if roll < 0.2:
                # Slide forward by up to a quarter of the remaining window.
                span = inc.window.end - inc.window.start
                inc.advance_start(inc.window.start + rng.random() * 0.25 * span)
            if roll < 0.5 or i == len(feed) - 1:
                config = rng.choice(CONFIGS)
                assert_results_identical(inc.result(config), inc.full_replay(config))

    @given(record_rows)
    @settings(max_examples=20, deadline=None)
    def test_refit_invalidation(self, rows):
        """Refitting the gap/latency models mid-stream stays exact."""
        records = to_records(rows)
        latency, gaps, clusters = fitted_models(records)
        inc = IncrementalReplay(latency, gaps, clusters, Window(0.0, HORIZON))
        half = len(records) // 2
        for record in records[:half]:
            inc.observe(record)
        config = CONFIGS[0]
        assert_results_identical(inc.result(config), inc.full_replay(config))
        # Refit on the half-window history: fit_generation bumps, the
        # incremental ledger must re-derive lags/gammas before answering.
        latency.fit(records[:half] or records)
        gaps.fit(records[:half] or records)
        for record in records[half:]:
            inc.observe(record)
        assert_results_identical(inc.result(config), inc.full_replay(config))

    def test_out_of_window_arrival_rejected(self):
        latency, gaps, clusters = fitted_models([])
        inc = IncrementalReplay(latency, gaps, clusters, Window(100.0, 200.0))
        record = to_records([(0, 5.0, 0, WarehouseSize.S, 1.0, False)])[0]
        try:
            inc.observe(record)
        except ConfigurationError:
            pass
        else:
            raise AssertionError("arrival before window start must be rejected")


class TestDurability:
    @given(record_rows, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_state_dict_roundtrip_byte_identical(self, rows, seed):
        """checkpoint → fresh ledger → load + re-feed → identical bytes."""
        records = to_records(rows)
        latency, gaps, clusters = fitted_models(records)
        inc = IncrementalReplay(latency, gaps, clusters, Window(0.0, HORIZON))
        rng = random.Random(seed)
        feed = records[:]
        rng.shuffle(feed)
        for record in feed:
            if record.arrival_time >= inc.window.start:
                inc.observe(record)
        if records:
            inc.advance_start(records[0].arrival_time)
        state = inc.state_dict()
        restored = IncrementalReplay(
            latency, gaps, clusters, Window(0.0, 1.0)
        )
        restored.load_state_dict(state)
        for record in inc.records:
            restored.observe(record)
        restored.verify_restored()
        assert restored.state_dict() == state
        assert state_checksum(restored.state_dict()) == state_checksum(state)
        # And the restored ledger answers identically.
        config = CONFIGS[0]
        assert_results_identical(restored.result(config), inc.result(config))

    def test_restore_mismatch_detected(self):
        records = to_records(
            [(100, 5.0, 0, WarehouseSize.S, 1.0, False),
             (900, 7.0, 1, WarehouseSize.M, 0.8, False)]
        )
        latency, gaps, clusters = fitted_models(records)
        inc = IncrementalReplay(latency, gaps, clusters, Window(0.0, HORIZON))
        for record in records:
            inc.observe(record)
        state = inc.state_dict()
        restored = IncrementalReplay(latency, gaps, clusters, Window(0.0, 1.0))
        restored.load_state_dict(state)
        restored.observe(records[0])  # one row short
        try:
            restored.verify_restored()
        except RecoveryError:
            pass
        else:
            raise AssertionError("short re-feed must fail verification")
