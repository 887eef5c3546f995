"""Tests for Snowflake-style billing semantics."""

import pytest

from repro.common.simtime import HOUR, Window
from repro.warehouse.billing import MINIMUM_BILLED_SECONDS, BillingMeter, UsageSegment
from repro.common.errors import WarehouseError
from repro.warehouse.types import WarehouseSize


class TestUsageSegment:
    def test_credits_pro_rated_per_second(self):
        seg = UsageSegment(1, WarehouseSize.XS, 0.0, 1800.0)  # 30 min at 1/hr
        assert seg.credits() == pytest.approx(0.5)

    def test_minimum_applies_to_fresh_start(self):
        seg = UsageSegment(1, WarehouseSize.XS, 0.0, 10.0, fresh_start=True)
        assert seg.billed_window().duration == MINIMUM_BILLED_SECONDS

    def test_minimum_skipped_for_continuation(self):
        seg = UsageSegment(1, WarehouseSize.XS, 0.0, 10.0, fresh_start=False)
        assert seg.billed_window().duration == 10.0

    def test_open_segment_has_no_billed_window(self):
        seg = UsageSegment(1, WarehouseSize.XS, 0.0)
        with pytest.raises(WarehouseError):
            seg.billed_window()

    def test_rate_scales_with_size(self):
        xs = UsageSegment(1, WarehouseSize.XS, 0.0, HOUR).credits()
        xl = UsageSegment(1, WarehouseSize.XL, 0.0, HOUR).credits()
        assert xl == 16 * xs


class TestBillingMeter:
    def test_open_close_cycle(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.S)
        assert meter.is_billing(1)
        seg = meter.close_segment(1, HOUR)
        assert not meter.is_billing(1)
        assert seg.credits() == pytest.approx(2.0)

    def test_double_open_rejected(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.S)
        with pytest.raises(WarehouseError):
            meter.open_segment(1, 10.0, WarehouseSize.S)

    def test_close_unopened_rejected(self):
        with pytest.raises(WarehouseError):
            BillingMeter("WH").close_segment(1, 10.0)

    def test_close_before_open_rejected(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 100.0, WarehouseSize.S)
        with pytest.raises(WarehouseError):
            meter.close_segment(1, 50.0)

    def test_total_includes_open_segments_as_of(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        assert meter.total_credits(as_of=HOUR) == pytest.approx(1.0)
        # Without as_of, open segments are not counted.
        assert meter.total_credits() == 0.0

    def test_reprice_changes_rate_without_new_minimum(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.reprice_segment(1, HOUR, WarehouseSize.S)
        meter.close_segment(1, 2 * HOUR)
        # 1 hour at 1 + 1 hour at 2.
        assert meter.total_credits() == pytest.approx(3.0)

    def test_reprice_short_continuation_has_no_minimum(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.reprice_segment(1, 120.0, WarehouseSize.S)
        meter.close_segment(1, 130.0)  # 10s continuation: no 60s minimum
        expected = 120 / HOUR * 1 + 10 / HOUR * 2
        assert meter.total_credits() == pytest.approx(expected)

    def test_minimum_charge_on_short_run(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.close_segment(1, 5.0)
        assert meter.total_credits() == pytest.approx(MINIMUM_BILLED_SECONDS / HOUR)

    def test_credits_in_window_clips(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.close_segment(1, 2 * HOUR)
        assert meter.credits_in_window(Window(0, HOUR)) == pytest.approx(1.0)
        assert meter.credits_in_window(Window(HOUR, 2 * HOUR)) == pytest.approx(1.0)
        assert meter.credits_in_window(Window(2 * HOUR, 3 * HOUR)) == 0.0

    def test_hourly_rollup_sums_to_window_credits(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 600.0, WarehouseSize.M)
        meter.close_segment(1, 3 * HOUR + 500.0)
        meter.open_segment(2, HOUR, WarehouseSize.M)
        meter.close_segment(2, HOUR + 900)
        window = Window(0, 4 * HOUR)
        rollup = meter.hourly_rollup(window)
        assert sum(rollup.values()) == pytest.approx(meter.credits_in_window(window))
        assert set(rollup) == {0, 1, 2, 3}

    def test_multiple_clusters_bill_independently(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.open_segment(2, 0.0, WarehouseSize.XS)
        meter.close_segment(1, HOUR)
        meter.close_segment(2, HOUR / 2)
        assert meter.total_credits() == pytest.approx(1.5)

    def test_active_cluster_seconds(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.close_segment(1, 100.0)
        meter.open_segment(2, 50.0, WarehouseSize.XS)
        meter.close_segment(2, 150.0)
        assert meter.active_cluster_seconds(Window(0, 200)) == pytest.approx(200.0)

    def test_open_cluster_ids(self):
        meter = BillingMeter("WH")
        meter.open_segment(3, 0.0, WarehouseSize.XS)
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        assert meter.open_cluster_ids == [1, 3]


class TestWindowScanWork:
    """Deterministic work counter: a trailing-window query examines the
    segments near the window, not the meter's whole history."""

    @staticmethod
    def meter_with_history(days: int) -> BillingMeter:
        # Two clusters cycling every 10 minutes, closed out of time order:
        # cluster 2's run ends at t + 90 but is closed after cluster 1's
        # resized run, which ends at t + 300.
        meter = BillingMeter("WH")
        for k in range(days * 144):
            t = k * 600.0
            meter.open_segment(1, t, WarehouseSize.S)
            meter.open_segment(2, t + 60.0, WarehouseSize.XS)
            meter.reprice_segment(1, t + 200.0, WarehouseSize.M)
            meter.close_segment(1, t + 300.0)
            meter.close_segment(2, t + 90.0)
        return meter

    @staticmethod
    def segments_examined(meter: BillingMeter, window: Window, monkeypatch) -> int:
        calls = 0
        billed_window = UsageSegment.billed_window

        def counting(seg):
            nonlocal calls
            calls += 1
            return billed_window(seg)

        with monkeypatch.context() as patch:
            patch.setattr(UsageSegment, "billed_window", counting)
            meter.credits_in_window(window)
        return calls

    def test_trailing_hour_scan_is_bounded_by_the_window(self, monkeypatch):
        examined = {}
        for days in (1, 10):
            end = days * 24 * HOUR
            meter = self.meter_with_history(days)
            examined[days] = self.segments_examined(meter, Window(end - HOUR, end), monkeypatch)
        # Six 10-minute cycles of three segments each overlap the hour.
        assert examined[1] == examined[10] == 18
