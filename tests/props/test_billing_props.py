"""Property-based tests for billing invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simtime import HOUR, Window, hour_index
from repro.warehouse.billing import MINIMUM_BILLED_SECONDS, BillingMeter, UsageSegment
from repro.warehouse.types import WarehouseSize

sizes = st.sampled_from(list(WarehouseSize))
# (start, duration) pairs for sequential segments on one cluster.
segment_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0),
        st.floats(min_value=0.1, max_value=5000.0),
        sizes,
    ),
    min_size=1,
    max_size=20,
)


def build_meter(segments) -> tuple[BillingMeter, float]:
    """Sequential open/close cycles; returns the meter and the end time."""
    meter = BillingMeter("WH")
    t = 0.0
    for gap, duration, size in segments:
        t += gap
        meter.open_segment(1, t, size)
        t += duration
        meter.close_segment(1, t)
    return meter, t


class TestBillingProperties:
    @given(segment_lists)
    @settings(max_examples=100, deadline=None)
    def test_credits_non_negative(self, segments):
        meter, _ = build_meter(segments)
        assert meter.total_credits() >= 0.0

    @given(segment_lists)
    @settings(max_examples=100, deadline=None)
    def test_minimum_charge_floor(self, segments):
        """Every fresh start bills at least the 60 s minimum."""
        meter, _ = build_meter(segments)
        floor = sum(
            MINIMUM_BILLED_SECONDS / HOUR * size.credits_per_hour
            for _, __, size in segments
        )
        assert meter.total_credits() >= floor - 1e-9

    @given(segment_lists)
    @settings(max_examples=100, deadline=None)
    def test_hourly_rollup_conserves_credits(self, segments):
        """Rolling up hourly must neither create nor destroy credits."""
        meter, end = build_meter(segments)
        window = Window(0.0, end + MINIMUM_BILLED_SECONDS + 1.0)
        rollup = meter.hourly_rollup(window)
        assert sum(rollup.values()) == pytest.approx(meter.total_credits(), rel=1e-9)

    @given(segment_lists, st.floats(min_value=1.0, max_value=20000.0))
    @settings(max_examples=100, deadline=None)
    def test_window_split_conserves_credits(self, segments, split):
        """Credits split across adjacent windows sum to the whole."""
        meter, end = build_meter(segments)
        horizon = end + MINIMUM_BILLED_SECONDS + 1.0
        split = min(split, horizon - 0.5)
        left = meter.credits_in_window(Window(0.0, split))
        right = meter.credits_in_window(Window(split, horizon))
        whole = meter.credits_in_window(Window(0.0, horizon))
        assert left + right == pytest.approx(whole, rel=1e-9, abs=1e-12)

    @given(segment_lists)
    @settings(max_examples=50, deadline=None)
    def test_bigger_sizes_cost_more(self, segments):
        """Re-running the same schedule one size up at least doubles cost
        for every non-maxed size (rates double, minimums double)."""
        meter, _ = build_meter(segments)
        upsized = [
            (gap, dur, WarehouseSize(min(size.value + 1, WarehouseSize.SIZE_6XL.value)))
            for gap, dur, size in segments
        ]
        meter_up, _ = build_meter(upsized)
        if all(size != WarehouseSize.SIZE_6XL for _, __, size in segments):
            assert meter_up.total_credits() == pytest.approx(2 * meter.total_credits())


# --- window scans vs the full-scan reference ----------------------------------
#
# The meter's window queries skip, by bisection, closed segments that end
# before the window.  The functions below are the full scans they replaced,
# kept as the reference: every result must match them bit for bit.


def _reference_segments(meter: BillingMeter, as_of):
    segments = list(meter._closed)
    for seg in meter._open.values():
        if as_of is None:
            continue
        segments.append(
            UsageSegment(seg.cluster_id, seg.size, seg.start, max(as_of, seg.start), seg.fresh_start)
        )
    return segments


def reference_credits_in_window(meter, window, as_of=None):
    total = 0.0
    for seg in _reference_segments(meter, as_of if as_of is not None else window.end):
        billed = seg.billed_window()
        total += billed.overlap(window) / HOUR * seg.size.credits_per_hour
    return total


def reference_hourly_rollup(meter, window, as_of=None):
    rollup = {}
    for seg in _reference_segments(meter, as_of if as_of is not None else window.end):
        billed = seg.billed_window()
        clipped_start = max(billed.start, window.start)
        clipped_end = min(billed.end, window.end)
        if clipped_end <= clipped_start:
            continue
        for piece in Window(clipped_start, clipped_end).split_hours():
            h = hour_index(piece.start)
            rollup[h] = rollup.get(h, 0.0) + piece.duration / HOUR * seg.size.credits_per_hour
    return rollup


def reference_active_cluster_seconds(meter, window, as_of=None):
    return sum(
        seg.billed_window().overlap(window)
        for seg in _reference_segments(meter, as_of if as_of is not None else window.end)
    )


# One op per step: (cluster, action, seconds, size).  Each cluster keeps its
# own clock, so closes across clusters land out of time order.
meter_ops = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["toggle", "toggle", "reprice"]),
        st.one_of(
            st.floats(min_value=0.0, max_value=MINIMUM_BILLED_SECONDS),
            st.floats(min_value=0.0, max_value=4 * HOUR),
        ),
        sizes,
    ),
    min_size=0,
    max_size=40,
)
window_specs = st.lists(
    st.tuples(
        st.floats(min_value=-0.1, max_value=1.1),
        st.floats(min_value=0.0, max_value=0.5),
        st.one_of(st.none(), st.floats(min_value=-0.1, max_value=1.1)),
    ),
    min_size=1,
    max_size=6,
)


def build_multi_cluster_meter(ops) -> tuple[BillingMeter, float]:
    """Replay ``ops``; returns the meter and the latest time any cluster saw."""
    meter = BillingMeter("WH")
    clock = {1: 0.0, 2: 0.0, 3: 0.0}
    for cluster, action, seconds, size in ops:
        clock[cluster] += seconds
        t = clock[cluster]
        if not meter.is_billing(cluster):
            meter.open_segment(cluster, t, size)
        elif action == "reprice":
            meter.reprice_segment(cluster, t, size)
        else:
            meter.close_segment(cluster, t)
    return meter, max(clock.values())


def assert_scans_match_reference(meter, window, as_of):
    got = meter.credits_in_window(window, as_of)
    want = reference_credits_in_window(meter, window, as_of)
    assert float(got).hex() == float(want).hex()
    got = meter.active_cluster_seconds(window, as_of)
    want = reference_active_cluster_seconds(meter, window, as_of)
    assert float(got).hex() == float(want).hex()
    got_rollup = [(h, v.hex()) for h, v in meter.hourly_rollup(window, as_of).items()]
    want_rollup = [(h, v.hex()) for h, v in reference_hourly_rollup(meter, window, as_of).items()]
    assert got_rollup == want_rollup


class TestWindowScanMatchesFullScan:
    @given(meter_ops, window_specs)
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_full_scan(self, ops, specs):
        meter, last = build_multi_cluster_meter(ops)
        horizon = last + MINIMUM_BILLED_SECONDS + HOUR
        windows = [
            (Window(-2 * HOUR, -HOUR), None),  # before every segment
            (Window(-HOUR, horizon), None),  # straddles all of them
            (Window(horizon, horizon + HOUR), None),  # after all of them
            (Window(last - HOUR, last), last),  # trailing hour, open valued at `last`
        ]
        for start, length, as_of in specs:
            window = Window(start * horizon, (start + length) * horizon)
            windows.append((window, None if as_of is None else as_of * horizon))
        for window, as_of in windows:
            assert_scans_match_reference(meter, window, as_of)

    def test_out_of_order_closes_and_continuations(self):
        """A long segment closed after short later ones keeps its overlap."""
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.open_segment(2, 100.0, WarehouseSize.S)
        meter.close_segment(2, 130.0)  # fresh start: billed to 160 s
        meter.reprice_segment(1, 5 * HOUR, WarehouseSize.M)
        meter.open_segment(3, 200.0, WarehouseSize.XS)
        meter.close_segment(3, 300.0)
        meter.close_segment(1, 5 * HOUR + 10.0)  # continuation: no minimum
        for window, as_of in [
            (Window(150.0, 250.0), None),
            (Window(4 * HOUR, 6 * HOUR), None),
            (Window(5 * HOUR + 5.0, 5 * HOUR + 20.0), 5 * HOUR + 30.0),
            (Window(160.0, 160.0), None),
        ]:
            assert_scans_match_reference(meter, window, as_of)
        assert meter.credits_in_window(Window(4 * HOUR, 6 * HOUR)) > 0.0
