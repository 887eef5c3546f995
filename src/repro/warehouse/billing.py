"""Per-second metering with Snowflake-style billing semantics.

Billing rules reproduced here (all load-bearing for the paper's cost model):

* each running **cluster** bills ``credits_per_hour(size)`` pro-rated per
  second while it runs;
* every cluster start incurs a **60-second minimum** charge — frequent
  suspend/resume cycles are therefore not free, which is why tuning the
  auto-suspend interval is a real optimization problem;
* usage is **rolled up hourly** into WAREHOUSE_METERING_HISTORY, the series
  the paper's Figures 4-6 plot.

The meter records one :class:`UsageSegment` per continuous cluster run at a
fixed size; a resize closes the segment and opens a new one at the new rate.

Window queries bisect past the closed segments whose billed windows end
by the window's start, on the running maximum of billed ends (segments can
close out of time order).  Each skipped one would add exactly ``+0.0``, so
results are bit-identical to a full scan.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from repro.common.errors import WarehouseError
from repro.common.simtime import HOUR, Window, hour_index
from repro.obs import trace as obs
from repro.warehouse.types import WarehouseSize

#: Minimum billed seconds per cluster start.
MINIMUM_BILLED_SECONDS = 60.0


@dataclass
class UsageSegment:
    """A continuous billed run of one cluster at one size."""

    cluster_id: int
    size: WarehouseSize
    start: float
    end: float | None = None
    #: True for the first segment after a cluster (re)start; only such
    #: segments are subject to the 60 s minimum.
    fresh_start: bool = True

    def billed_window(self) -> Window:
        """The window of time actually charged for this segment."""
        if self.end is None:
            raise WarehouseError("segment is still open")
        duration = self.end - self.start
        if self.fresh_start:
            duration = max(duration, MINIMUM_BILLED_SECONDS)
        return Window(self.start, self.start + duration)

    def credits(self) -> float:
        return self.billed_window().duration / HOUR * self.size.credits_per_hour


class BillingMeter:
    """Accumulates usage segments for one warehouse."""

    def __init__(self, warehouse: str):
        self.warehouse = warehouse
        self._closed: list[UsageSegment] = []
        #: ``_reach[i]``: latest billed end among ``_closed[: i + 1]``.
        self._reach: list[float] = []
        self._open: dict[int, UsageSegment] = {}

    def open_segment(
        self, cluster_id: int, t: float, size: WarehouseSize, fresh_start: bool = True
    ) -> None:
        """Begin billing ``cluster_id`` at ``size`` from time ``t``."""
        if cluster_id in self._open:
            raise WarehouseError(
                f"cluster {cluster_id} of {self.warehouse} already has an open segment"
            )
        self._open[cluster_id] = UsageSegment(cluster_id, size, t, fresh_start=fresh_start)

    def close_segment(self, cluster_id: int, t: float) -> UsageSegment:
        """Stop billing ``cluster_id`` at time ``t`` and archive the segment."""
        seg = self._open.pop(cluster_id, None)
        if seg is None:
            raise WarehouseError(f"cluster {cluster_id} of {self.warehouse} is not being billed")
        if t < seg.start:
            raise WarehouseError("cannot close a segment before it started")
        seg.end = t
        self._closed.append(seg)
        end = seg.billed_window().end
        self._reach.append(max(end, self._reach[-1]) if self._reach else end)
        rec = obs.recorder()
        if rec is not None:
            # Segment credits are final at close time (a resize closes and
            # reopens), so this series is the warehouse's spend over sim
            # time — what the spend-rate SLO burns against.
            rec.counter(f"repro.billing.{self.warehouse.lower()}.credits").inc(
                seg.credits(), time=t
            )
        return seg

    def reprice_segment(self, cluster_id: int, t: float, size: WarehouseSize) -> None:
        """Close and reopen a cluster's segment at a new rate (resize).

        The continuation segment is not a fresh start, so it does not incur
        another 60 s minimum.
        """
        self.close_segment(cluster_id, t)
        self.open_segment(cluster_id, t, size, fresh_start=False)

    def is_billing(self, cluster_id: int) -> bool:
        return cluster_id in self._open

    @property
    def open_cluster_ids(self) -> list[int]:
        return sorted(self._open)

    def _segments(self, as_of: float | None, after: float = -math.inf) -> list[UsageSegment]:
        """Closed segments in close order, from the first whose billed window
        may end past ``after``, then open segments valued at ``as_of``
        (none when ``as_of`` is None)."""
        segments = self._closed[bisect_right(self._reach, after):]
        if as_of is not None:
            segments.extend(
                UsageSegment(seg.cluster_id, seg.size, seg.start, max(as_of, seg.start), seg.fresh_start)
                for seg in self._open.values()
            )
        return segments

    def total_credits(self, as_of: float | None = None) -> float:
        """Total credits billed so far (open segments valued at ``as_of``)."""
        return sum(seg.credits() for seg in self._segments(as_of))

    def credits_in_window(self, window: Window, as_of: float | None = None) -> float:
        """Credits attributable to ``window`` (minimum charges included at
        the start of their segment's billed window)."""
        total = 0.0
        for seg in self._segments(as_of if as_of is not None else window.end, window.start):
            billed = seg.billed_window()
            total += billed.overlap(window) / HOUR * seg.size.credits_per_hour
        return total

    def hourly_rollup(self, window: Window, as_of: float | None = None) -> dict[int, float]:
        """WAREHOUSE_METERING_HISTORY: credits per hour index inside ``window``."""
        rollup: dict[int, float] = {}
        for seg in self._segments(as_of if as_of is not None else window.end, window.start):
            billed = seg.billed_window()
            clipped_start = max(billed.start, window.start)
            clipped_end = min(billed.end, window.end)
            if clipped_end <= clipped_start:
                continue
            for piece in Window(clipped_start, clipped_end).split_hours():
                h = hour_index(piece.start)
                rollup[h] = rollup.get(h, 0.0) + piece.duration / HOUR * seg.size.credits_per_hour
        return rollup

    def active_cluster_seconds(self, window: Window, as_of: float | None = None) -> float:
        """Billed cluster-seconds overlapping ``window`` (for utilization KPIs)."""
        return sum(
            (
                seg.billed_window().overlap(window)
                for seg in self._segments(as_of if as_of is not None else window.end, window.start)
            ),
            0.0,
        )
