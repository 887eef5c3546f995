"""LiveLedger: streaming realized-vs-projected savings over report periods.

The exactness of the underlying ``IncrementalReplay`` is property-tested in
``tests/props/test_incremental_replay.py``; these tests pin the wiring —
idempotent ingestion, the aligned-reconciliation zero-divergence invariant,
period rolls, the durable round-trip, and the optimizer integration behind
``OptimizerConfig.live_ledger``.
"""

import pytest

from repro.common.errors import ConfigurationError, RecoveryError
from repro.common.simtime import HOUR, Window
from repro.core.ledger import LiveLedger
from repro.core.optimizer import OptimizerConfig, WarehouseOptimizer
from repro.costmodel.clusters import ClusterCountPredictor
from repro.costmodel.gaps import GapModel
from repro.costmodel.latency import LatencyScalingModel
from repro.costmodel.model import SavingsEstimate
from repro.costmodel.replay import QueryReplay
from repro.durability.codec import state_checksum
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize

from tests.conftest import make_account, make_requests, make_template

PERIOD = Window(0.0, 4 * HOUR)
ORIGINAL = WarehouseConfig(size=WarehouseSize.M, auto_suspend_seconds=600.0)


def make_records(n=40, start=100.0, spacing=240.0) -> list[QueryRecord]:
    return [
        QueryRecord(
            query_id=i,
            warehouse="WH",
            text_hash=f"x{i}",
            template_hash=f"t{i % 3}",
            arrival_time=start + i * spacing,
            start_time=start + i * spacing,
            end_time=start + i * spacing + 30.0 + (i % 5) * 11.0,
            execution_seconds=30.0 + (i % 5) * 11.0,
            warehouse_size=WarehouseSize.M,
            cache_hit_ratio=0.5,
            cluster_number=1,
            chained=i % 4 == 0,
            completed=True,
        )
        for i in range(n)
    ]


def make_ledger(records, period=PERIOD) -> LiveLedger:
    return LiveLedger(
        "WH",
        LatencyScalingModel().fit(records),
        GapModel().fit(records),
        ClusterCountPredictor(),
        period,
    )


def full_credits(ledger: LiveLedger, records, config=ORIGINAL) -> float:
    replay = QueryReplay(
        ledger.latency_model, ledger.gap_model, ledger.cluster_predictor
    )
    return replay.replay(records, config, ledger.period).credits


class TestIngestion:
    def test_ingest_is_idempotent_per_query_id(self):
        records = make_records()
        ledger = make_ledger(records)
        assert ledger.ingest(records, now=HOUR) == len(records)
        assert ledger.ingest(records, now=2 * HOUR) == 0
        assert ledger.rows_streamed == len(records)
        assert ledger.cursor == 2 * HOUR

    def test_rows_outside_period_skipped(self):
        records = make_records()
        late = make_records(n=3, start=PERIOD.end + 50.0)
        ledger = make_ledger(records)
        assert ledger.ingest(records + late, now=HOUR) == len(records)


class TestReconcile:
    def test_aligned_exact_reconcile_divergence_is_zero(self):
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records, now=PERIOD.end)
        estimate = SavingsEstimate(PERIOD, full_credits(ledger, records), 1.0)
        entry = ledger.reconcile(estimate, ORIGINAL)
        assert entry.aligned
        assert entry.divergence == 0.0
        assert entry.projected_credits == estimate.without_keebo_credits
        assert entry.rows_streamed == len(records)

    def test_unaligned_period_counted_not_scored(self):
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records, now=PERIOD.end)
        stretched = Window(PERIOD.start, PERIOD.end + 600.0)
        estimate = SavingsEstimate(stretched, 12.0, 1.0)
        entry = ledger.reconcile(estimate, ORIGINAL)
        assert not entry.aligned
        assert entry.divergence == 0.0
        assert ledger.unaligned_periods == 1

    def test_roll_opens_a_fresh_period(self):
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records, now=PERIOD.end)
        next_period = Window(PERIOD.end, PERIOD.end + 4 * HOUR)
        ledger.roll(next_period)
        assert ledger.period == next_period
        assert ledger.rows_streamed == 0
        # Old ids are forgotten with the period: a fresh period re-admits.
        shifted = make_records(n=5, start=PERIOD.end + 10.0)
        assert ledger.ingest(shifted, now=PERIOD.end + HOUR) == 5


class TestDurability:
    def test_state_roundtrip_byte_identical(self):
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records[:30], now=2 * HOUR)
        state = ledger.state_dict()
        restored = make_ledger(records)
        # Re-feed sees the whole history; rows completed after the cursor
        # (or outside the period) must be filtered back out.
        restored.load_state_dict(state, records)
        assert restored.state_dict() == state
        assert state_checksum(restored.state_dict()) == state_checksum(state)
        assert (
            restored.projection(ORIGINAL).credits
            == ledger.projection(ORIGINAL).credits
        )

    def test_restore_with_missing_rows_fails(self):
        records = make_records()
        ledger = make_ledger(records)
        ledger.ingest(records, now=PERIOD.end)
        state = ledger.state_dict()
        restored = make_ledger(records)
        with pytest.raises(RecoveryError):
            restored.load_state_dict(state, records[:-1])


class TestOptimizerIntegration:
    def test_live_ledger_reconciles_bit_identically(self):
        account, wh = make_account(
            seed=37, size=WarehouseSize.M, auto_suspend_seconds=600.0, max_clusters=2
        )
        template = make_template("live", base_work_seconds=15.0, n_partitions=2)
        times = [10.0 + i * 400.0 for i in range(int(24 * 9))]
        account.schedule_workload(wh, make_requests(template, times))
        account.run_until(12 * HOUR)
        config = OptimizerConfig(
            training_window=12 * HOUR,
            onboarding_episodes=1,
            episode_length=6 * HOUR,
            retrain_interval=12 * HOUR,
            retrain_episodes=0,
            decision_interval=900.0,
            report_interval=3 * HOUR,
            confidence_tau=0.0,
            live_ledger=True,
        )
        optimizer = WarehouseOptimizer(account, wh, config=config)
        optimizer.onboard()
        account.run_until(22 * HOUR)
        ledger = optimizer.live_ledger
        assert ledger is not None
        aligned = [e for e in ledger.reconciliations if e.aligned]
        assert aligned, "no report period closed on the tick grid"
        # The headline invariant: streamed projection == full replay, bit
        # for bit, on every aligned period close.
        for entry in aligned:
            assert entry.divergence == 0.0
            assert entry.projected_credits == entry.estimated_credits
        assert any(e.rows_streamed > 0 for e in ledger.reconciliations)

    def test_live_ledger_off_by_default(self):
        account, wh = make_account(seed=38)
        template = make_template("off", base_work_seconds=10.0)
        account.schedule_workload(
            wh, make_requests(template, [10.0 + i * 600.0 for i in range(80)])
        )
        account.run_until(12 * HOUR)
        optimizer = WarehouseOptimizer(
            account,
            wh,
            config=OptimizerConfig(
                training_window=12 * HOUR,
                onboarding_episodes=1,
                episode_length=6 * HOUR,
                retrain_episodes=0,
                confidence_tau=0.0,
            ),
        )
        optimizer.onboard()
        assert optimizer.live_ledger is None

    @pytest.mark.parametrize("mode", ["interval", "EXACT", ""])
    def test_live_ledger_mode_accepts_only_exact(self, mode):
        with pytest.raises(ConfigurationError):
            OptimizerConfig(live_ledger_mode=mode)
