"""Incremental what-if ledger: O(delta) streaming cost model (ROADMAP item 3).

:class:`QueryReplay` memoizes the config-independent prep of one telemetry
snapshot, but the memo key is the *identity* of the records list — so in a
streaming setting, where every new QUERY_HISTORY row produces a new list,
each savings refresh pays a full-window recompute.  This module maintains
the what-if ledger *online*: :class:`IncrementalReplay` ingests one row at a
time and keeps, per candidate configuration, enough folded state that the
next :class:`~repro.costmodel.replay.ReplayResult` costs O(delta + buckets)
instead of O(window).

The ledger is exact: it is bit-identical to a full
:class:`~repro.costmodel.replay.QueryReplay` over the same records and
window — the property ``tests/props/test_incremental_replay.py`` locks in
under arbitrary interleavings of append / out-of-order insert / eviction /
config change.  Value-based pricing bills on this estimate (§4.7), so there
is no approximate mode.  The trick is a *frozen-prefix / live-suffix* fold
over the sorted counterfactual spans:

* spans are kept sorted by ``(start, end)`` — the order
  ``np.lexsort((finishes, starts))`` produces in the full replay.  Every
  downstream kernel depends only on the sorted *content* (identical values
  commute in float sums), so maintaining the same sorted multiset suffices;
* the per-mini-window coverage sums (concurrency profile, merged-busy
  overlap, burst overlap) are folded for a frozen prefix of spans in span
  order.  ``np.add.at`` applies pair updates sequentially, so accumulating
  the live suffix *into a copy of the prefix sums* reproduces, bit for bit,
  one :func:`~repro.costmodel.kernels.bucketed_overlap` call over all spans
  (see :func:`~repro.costmodel.kernels.overlap_into`);
* merged intervals and activation bursts are folded the same way: closed
  groups are final, the one *open* group at the fold boundary is re-merged
  with the suffix on every materialization.

Appends in arrival order are O(1) amortized plus an O(buckets + suffix)
materialization; out-of-order inserts that land inside the live suffix stay
cheap, and anything that touches the frozen prefix (deep inserts, eviction,
window slides, model refits) marks the per-config state dirty and amortizes
one vectorized rebuild.  Exactness therefore never depends on which path
ran — only the *cost* does.  Float subtraction is not the inverse of float
addition, so a bit-exact sliding fold cannot evict in O(delta).

Durability: the canonical :meth:`IncrementalReplay.state_dict` (window,
cursor counts, a checksum over ingested row ids) round-trips through
``repro.durability`` byte-identically; the row *contents* are recovered by
re-feeding from telemetry, which by the exactness property reconstructs an
equivalent ledger regardless of the original interleaving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError, RecoveryError
from repro.common.simtime import HOUR, Window
from repro.common.stats import percentile
from repro.costmodel import kernels
from repro.costmodel.clusters import MINI_WINDOW_SECONDS, ClusterCountPredictor
from repro.costmodel.gaps import GapModel
from repro.costmodel.latency import LatencyScalingModel
from repro.costmodel.replay import _SIZE_VALUES, QueryReplay, ReplayResult
from repro.durability.codec import (
    decode_window,
    encode_window,
    require_keys,
    state_checksum,
)
from repro.warehouse.billing import MINIMUM_BILLED_SECONDS
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord

#: Live-suffix length that triggers folding spans into the frozen prefix.
FOLD_TRIGGER = 256
#: Suffix length kept live after a fold (headroom for out-of-order inserts).
FOLD_KEEP = 64


class _Buf:
    """Amortized-O(1) append / evict-from-front numpy column."""

    __slots__ = ("data", "head", "n")

    def __init__(self, dtype: type) -> None:
        self.data = np.empty(16, dtype=dtype)
        self.head = 0
        self.n = 0

    def view(self) -> np.ndarray:
        return self.data[self.head : self.head + self.n]

    def _grow(self, extra: int = 1) -> None:
        need = self.n + extra
        if self.head + need <= self.data.size and self.head <= self.data.size // 2:
            return
        cap = max(16, 2 * need)
        fresh = np.empty(cap, dtype=self.data.dtype)
        fresh[: self.n] = self.view()
        self.data = fresh
        self.head = 0

    def insert(self, idx: int, value: float) -> None:
        self._grow(1)
        lo = self.head + idx
        hi = self.head + self.n
        self.data[lo + 1 : hi + 1] = self.data[lo:hi]
        self.data[lo] = value
        self.n += 1

    def set(self, idx: int, value: float) -> None:
        self.data[self.head + idx] = value

    def get(self, idx: int) -> float:
        return self.data[self.head + idx]

    def delete(self, idx: int) -> None:
        lo = self.head + idx
        hi = self.head + self.n
        self.data[lo : hi - 1] = self.data[lo + 1 : hi]
        self.n -= 1

    def drop_front(self, count: int) -> None:
        self.head += count
        self.n -= count

    def load(self, values: np.ndarray) -> None:
        self.data = np.array(values, dtype=self.data.dtype)
        self.head = 0
        self.n = int(values.size)


def _searchsorted_pair(
    starts: np.ndarray, ends: np.ndarray, start: float, end: float
) -> int:
    """Insertion index for ``(start, end)`` in arrays sorted by that pair."""
    lo = int(np.searchsorted(starts, start, side="left"))
    hi = int(np.searchsorted(starts, start, side="right"))
    if lo == hi:
        return lo
    return lo + int(np.searchsorted(ends[lo:hi], end, side="right"))


def _config_key(config: WarehouseConfig) -> tuple:
    return (
        config.size,
        float(config.auto_suspend_seconds),
        int(config.min_clusters),
        int(config.max_clusters),
        int(config.max_concurrency),
    )


class _ExactState:
    """Per-config folded state of the bit-exact ledger."""

    def __init__(self, config: WarehouseConfig, n_windows: int) -> None:
        self.config = config
        self.n_windows = n_windows
        self.lat = _Buf(np.float64)
        self.shifted = _Buf(np.float64)
        self.span_starts = _Buf(np.float64)
        self.span_ends = _Buf(np.float64)
        self.dirty = True
        self.frozen = 0
        self.conc_base = np.zeros(n_windows, dtype=np.float64)
        self.busy_base = np.zeros(n_windows, dtype=np.float64)
        self.burst_base = np.zeros(n_windows, dtype=np.float64)
        self.busy_open: tuple[float, float] | None = None
        self.burst_open: tuple[float, float] | None = None
        self.n_closed_intervals = 0
        self.n_closed_bursts = 0
        # Literal int 0 so the first fold reproduces sum()'s `0 + d1` start.
        self.active_base: float = 0
        self.shortfall_base: list[float] = []

    # -------------------------------------------------------------- editing
    def insert_record(self, owner: "IncrementalReplay", k: int) -> None:
        """Splice record ``k`` (already in the shared columns) in."""
        if self.dirty:
            return
        lat_k = owner._rescale_one(k, self.config)
        self.lat.insert(k, lat_k)
        new = self._shifted_value(owner, k)
        self.shifted.insert(k, new)
        end = min(new + lat_k, owner.window.end)
        if end > new:
            self._insert_span(new, end)
        self._cascade(owner, k + 1)

    def evict(self) -> None:
        """Window slid: the bucket grid moved, so fold state is void."""
        self.dirty = True

    def _shifted_value(self, owner: "IncrementalReplay", j: int) -> float:
        window_start = owner.window.start
        if owner._chained.get(j) and j > 0:
            arrival = (
                float(self.shifted.get(j - 1)) + float(self.lat.get(j - 1))
            ) + float(owner._lags.get(j))
            return arrival if arrival >= window_start else window_start
        raw = float(owner._raw_arrivals.get(j))
        return raw if raw >= window_start else window_start

    def _cascade(self, owner: "IncrementalReplay", j: int) -> None:
        """Recompute shifted arrivals from ``j`` until the chain converges.

        The scalar recurrence matches the full replay's chained-arrival loop
        op for op; it stops at the first record whose shifted arrival comes
        out bit-equal to the stored value (identical inputs from there on,
        so everything downstream is identical too).
        """
        if self.dirty:
            return
        n = owner._n
        window_end = owner.window.end
        while j < n:
            new = self._shifted_value(owner, j)
            old = float(self.shifted.get(j))
            if new == old:
                break
            lat_j = float(self.lat.get(j))
            old_end = min(old + lat_j, window_end)
            if old_end > old:
                self._remove_span(old, old_end)
                if self.dirty:
                    return
            self.shifted.set(j, new)
            new_end = min(new + lat_j, window_end)
            if new_end > new:
                self._insert_span(new, new_end)
                if self.dirty:
                    return
            j += 1

    def _remove_span(self, start: float, end: float) -> None:
        starts = self.span_starts.view()
        ends = self.span_ends.view()
        pos = _searchsorted_pair(starts, ends, start, end) - 1
        if pos < 0 or starts[pos] != start or ends[pos] != end:
            self.dirty = True
            return
        if pos < self.frozen:
            self.dirty = True
            return
        self.span_starts.delete(pos)
        self.span_ends.delete(pos)

    def _insert_span(self, start: float, end: float) -> None:
        starts = self.span_starts.view()
        ends = self.span_ends.view()
        pos = _searchsorted_pair(starts, ends, start, end)
        if pos < self.frozen:
            self.dirty = True
            return
        self.span_starts.insert(pos, start)
        self.span_ends.insert(pos, end)

    # -------------------------------------------------------------- rebuild
    def rebuild(self, owner: "IncrementalReplay") -> None:
        """Vectorized from-scratch rebuild (the full replay's own ops)."""
        window = owner.window
        n = owner._n
        config = self.config
        self.n_windows = owner.n_windows
        if n == 0:
            self.lat.load(np.empty(0))
            self.shifted.load(np.empty(0))
            self.span_starts.load(np.empty(0))
            self.span_ends.load(np.empty(0))
        else:
            lat = owner.latency_model.rescale_batch(
                owner._templates_list(),
                owner._size_values.view(),
                owner._cache_hits.view(),
                owner._exec_seconds.view(),
                config.size,
                gammas=owner._gammas.view(),
            )
            arrivals = np.maximum(owner._raw_arrivals.view(), window.start)
            chained_idx = np.flatnonzero(owner._chained.view())
            if chained_idx.size:
                shifted_arrivals = arrivals.tolist()
                latency_list = lat.tolist()
                lag_list = owner._lags.view().tolist()
                window_start = window.start
                for i in chained_idx.tolist():
                    arrival = (
                        shifted_arrivals[i - 1] + latency_list[i - 1]
                    ) + lag_list[i]
                    shifted_arrivals[i] = (
                        arrival if arrival >= window_start else window_start
                    )
                arrivals = np.asarray(shifted_arrivals, dtype=np.float64)
            ends = np.minimum(arrivals + lat, window.end)
            live = ends > arrivals
            starts = arrivals[live]
            finishes = ends[live]
            order = np.lexsort((finishes, starts))
            self.lat.load(lat)
            self.shifted.load(arrivals)
            self.span_starts.load(starts[order])
            self.span_ends.load(finishes[order])
        self.frozen = 0
        self.conc_base = np.zeros(self.n_windows, dtype=np.float64)
        self.busy_base = np.zeros(self.n_windows, dtype=np.float64)
        self.burst_base = np.zeros(self.n_windows, dtype=np.float64)
        self.busy_open = None
        self.burst_open = None
        self.n_closed_intervals = 0
        self.n_closed_bursts = 0
        self.active_base = 0
        self.shortfall_base = []
        self.dirty = False
        self.fold(owner)

    # ----------------------------------------------------------------- fold
    def fold(self, owner: "IncrementalReplay") -> None:
        """Advance the frozen prefix, leaving FOLD_KEEP spans live."""
        n_spans = self.span_starts.n
        if n_spans - self.frozen <= FOLD_TRIGGER:
            return
        new_frozen = n_spans - FOLD_KEEP
        window = owner.window
        starts = self.span_starts.view()
        ends = self.span_ends.view()
        chunk_s = starts[self.frozen : new_frozen]
        chunk_e = ends[self.frozen : new_frozen]
        kernels.overlap_into(
            self.conc_base, chunk_s, chunk_e, window.start,
            MINI_WINDOW_SECONDS, self.n_windows,
        )
        # Merged busy intervals: close every group the chunk completes.
        closed: list[tuple[float, float]] = []
        open_iv = self.busy_open
        for s, e in zip(chunk_s.tolist(), chunk_e.tolist()):
            if open_iv is not None and s <= open_iv[1]:
                if e > open_iv[1]:
                    open_iv = (open_iv[0], e)
            else:
                if open_iv is not None:
                    closed.append(open_iv)
                open_iv = (s, e)
        self.busy_open = open_iv
        if closed:
            arr = np.asarray(closed, dtype=np.float64)
            kernels.overlap_into(
                self.busy_base, np.ascontiguousarray(arr[:, 0]),
                np.ascontiguousarray(arr[:, 1]), window.start,
                MINI_WINDOW_SECONDS, self.n_windows,
            )
            self.n_closed_intervals += len(closed)
        # Activation bursts (suspend <= 0 is materialized directly).
        suspend = self.config.auto_suspend_seconds
        if suspend > 0:
            closed_bursts: list[tuple[float, float]] = []
            open_b = self.burst_open
            for s, e in zip(chunk_s.tolist(), chunk_e.tolist()):
                if open_b is None:
                    open_b = (s, e)
                elif s <= open_b[1] + suspend:
                    if e > open_b[1]:
                        open_b = (open_b[0], e)
                else:
                    closed_bursts.append(
                        (open_b[0], min(open_b[1] + suspend, window.end))
                    )
                    open_b = (s, e)
            self.burst_open = open_b
            if closed_bursts:
                arr = np.asarray(closed_bursts, dtype=np.float64)
                kernels.overlap_into(
                    self.burst_base, np.ascontiguousarray(arr[:, 0]),
                    np.ascontiguousarray(arr[:, 1]), window.start,
                    MINI_WINDOW_SECONDS, self.n_windows,
                )
                for bs, be in closed_bursts:
                    duration = be - bs
                    self.active_base = self.active_base + duration
                    if duration < MINIMUM_BILLED_SECONDS:
                        self.shortfall_base.append(MINIMUM_BILLED_SECONDS - duration)
                self.n_closed_bursts += len(closed_bursts)
        self.frozen = new_frozen

    # ------------------------------------------------------------- material
    def materialize(self, owner: "IncrementalReplay") -> ReplayResult:
        if self.dirty or self.n_windows != owner.n_windows:
            self.rebuild(owner)
        else:
            self.fold(owner)
        window = owner.window
        config = self.config
        n_queries = self.lat.n
        if n_queries == 0:
            return ReplayResult(0.0, 0.0, 0.0, 0, 0, 0.0, 0.0)
        rate = config.size.credits_per_hour
        n_windows = self.n_windows
        starts = self.span_starts.view()
        ends = self.span_ends.view()
        suffix_s = starts[self.frozen :]
        suffix_e = ends[self.frozen :]
        # Concurrency profile: prefix sums + suffix pairs, then /step — the
        # same dividend values bucketed_overlap would produce over all spans.
        conc = self.conc_base.copy()
        kernels.overlap_into(
            conc, suffix_s, suffix_e, window.start, MINI_WINDOW_SECONDS, n_windows
        )
        predicted = owner.cluster_predictor.predict_from_concurrency(
            conc / MINI_WINDOW_SECONDS, config
        )
        # Merged busy coverage: closed prefix groups + re-merged open/suffix.
        tail_intervals: list[tuple[float, float]] = []
        open_iv = self.busy_open
        for s, e in zip(suffix_s.tolist(), suffix_e.tolist()):
            if open_iv is not None and s <= open_iv[1]:
                if e > open_iv[1]:
                    open_iv = (open_iv[0], e)
            else:
                if open_iv is not None:
                    tail_intervals.append(open_iv)
                open_iv = (s, e)
        if open_iv is not None:
            tail_intervals.append(open_iv)
        busy_overlap = self.busy_base.copy()
        if tail_intervals:
            arr = np.asarray(tail_intervals, dtype=np.float64)
            kernels.overlap_into(
                busy_overlap, np.ascontiguousarray(arr[:, 0]),
                np.ascontiguousarray(arr[:, 1]), window.start,
                MINI_WINDOW_SECONDS, n_windows,
            )
        # Activation bursts.
        suspend = config.auto_suspend_seconds
        tail_bursts: list[tuple[float, float]] = []
        if suspend <= 0:
            if starts.size:
                tail_bursts = [(float(starts[0]), window.end)]
            burst_overlap = np.zeros(n_windows, dtype=np.float64)
            n_closed_bursts = 0
            active_seconds: float = 0
            shortfalls: list[float] = []
        else:
            open_b = self.burst_open
            for s, e in zip(suffix_s.tolist(), suffix_e.tolist()):
                if open_b is None:
                    open_b = (s, e)
                elif s <= open_b[1] + suspend:
                    if e > open_b[1]:
                        open_b = (open_b[0], e)
                else:
                    tail_bursts.append(
                        (open_b[0], min(open_b[1] + suspend, window.end))
                    )
                    open_b = (s, e)
            if open_b is not None:
                tail_bursts.append((open_b[0], min(open_b[1] + suspend, window.end)))
            burst_overlap = self.burst_base.copy()
            n_closed_bursts = self.n_closed_bursts
            active_seconds = self.active_base
            shortfalls = self.shortfall_base
        if tail_bursts:
            arr = np.asarray(tail_bursts, dtype=np.float64)
            kernels.overlap_into(
                burst_overlap, np.ascontiguousarray(arr[:, 0]),
                np.ascontiguousarray(arr[:, 1]), window.start,
                MINI_WINDOW_SECONDS, n_windows,
            )
        # Billing — the exact statement sequence of QueryReplay._bill.
        base_clusters = float(max(config.min_clusters, 1))
        clusters = np.maximum(predicted, base_clusters)
        cluster_seconds_per_window = (
            base_clusters * burst_overlap
            + (clusters - base_clusters) * np.minimum(busy_overlap, burst_overlap)
        )
        cluster_seconds = float(cluster_seconds_per_window.sum())
        credits = cluster_seconds / HOUR * rate
        for delta in shortfalls:
            credits += delta / HOUR * rate
            cluster_seconds += delta
        for burst_start, burst_end in tail_bursts:
            duration = burst_end - burst_start
            active_seconds = active_seconds + duration
            if duration < MINIMUM_BILLED_SECONDS:
                delta = MINIMUM_BILLED_SECONDS - duration
                credits += delta / HOUR * rate
                cluster_seconds += delta
        hourly = kernels.hourly_credit_sums(
            cluster_seconds_per_window, window.start, MINI_WINDOW_SECONDS, HOUR, rate
        )
        latencies = self.lat.view()
        return ReplayResult(
            credits=credits,
            active_seconds=active_seconds,
            cluster_seconds=cluster_seconds,
            n_queries=n_queries,
            n_bursts=n_closed_bursts + len(tail_bursts),
            avg_latency=float(np.mean(latencies)) if n_queries else 0.0,
            p99_latency=percentile(latencies, 99),
            hourly_credits=hourly,
        )


@dataclass
class IncrementalReplay:
    """Streaming what-if ledger over one telemetry window.

    Feed rows with :meth:`observe` (any arrival order within the window),
    slide the window start with :meth:`advance_start`, and materialize a
    per-config :class:`~repro.costmodel.replay.ReplayResult` with
    :meth:`result`.  See the module docstring for the cost model of each
    operation and the exactness contract.
    """

    latency_model: LatencyScalingModel
    gap_model: GapModel
    cluster_predictor: ClusterCountPredictor
    window: Window
    max_configs: int = 16

    def __post_init__(self) -> None:
        self._records: list[QueryRecord] = []
        self._templates: list[str] = []
        self._raw_arrivals = _Buf(np.float64)
        self._end_times = _Buf(np.float64)
        self._exec_seconds = _Buf(np.float64)
        self._cache_hits = _Buf(np.float64)
        self._size_values = _Buf(np.float64)
        self._chained_flags = _Buf(bool)
        self._chained = _Buf(bool)
        self._lags = _Buf(np.float64)
        self._gammas = _Buf(np.float64)
        self._n = 0
        self._rows_observed = 0
        self._rows_evicted = 0
        self._states: dict[tuple, _ExactState] = {}
        self._fit_key = self._current_fit_key()
        self._id_checksum_memo: tuple[int, str] | None = None

    # ------------------------------------------------------------ plumbing
    @property
    def n_windows(self) -> int:
        return max(1, int(math.ceil(self.window.duration / MINI_WINDOW_SECONDS)))

    @property
    def n_records(self) -> int:
        return self._n

    @property
    def records(self) -> list[QueryRecord]:
        """The retained rows, in maintained arrival order (copy)."""
        return list(self._records)

    def _current_fit_key(self) -> tuple[int, int]:
        return (self.gap_model.fit_generation, self.latency_model.fit_generation)

    def _templates_list(self) -> list[str]:
        return self._templates

    def _rescale_one(self, k: int, config: WarehouseConfig) -> float:
        """Scalar twin of one ``rescale_batch`` element (bit-identical)."""
        gamma = float(self._gammas.get(k))
        exponent = gamma * (float(self._size_values.get(k)) - config.size.value)
        factor = 2.0 ** exponent
        cache_hit = float(self._cache_hits.get(k))
        if cache_hit < 0.5:  # MIN_FIT_CACHE_HIT
            factor = 1.0 + (factor - 1.0) * max(cache_hit, 0.3)
        return float(self._exec_seconds.get(k)) * factor

    def _refit_check(self) -> None:
        key = self._current_fit_key()
        if key == self._fit_key:
            return
        self._fit_key = key
        # Re-derive every fitted-model-dependent column, then rebuild.
        if self._n:
            chained, lags = self.gap_model.classify_arrays(
                self._raw_arrivals.view(),
                self._end_times.view(),
                self._templates,
                self._chained_flags.view(),
            )
            self._chained.load(chained)
            self._lags.load(lags)
            self._gammas.load(self.latency_model.gamma_array(self._templates))
        for state in self._states.values():
            state.dirty = True

    # ------------------------------------------------------------- updates
    def observe(self, record: QueryRecord) -> None:
        """Ingest one QUERY_HISTORY row (O(delta) amortized)."""
        arrival = float(record.arrival_time)
        if not (self.window.start <= arrival < self.window.end):
            raise ConfigurationError(
                f"arrival {arrival} outside window "
                f"[{self.window.start}, {self.window.end})"
            )
        self._refit_check()
        raw = self._raw_arrivals.view()
        k = int(np.searchsorted(raw, arrival, side="right"))
        self._records.insert(k, record)
        self._templates.insert(k, record.template_hash)
        self._raw_arrivals.insert(k, arrival)
        self._end_times.insert(k, float(record.end_time))
        self._exec_seconds.insert(k, float(record.execution_seconds))
        self._cache_hits.insert(k, float(record.cache_hit_ratio))
        self._size_values.insert(k, _SIZE_VALUES[record.warehouse_size])
        self._chained_flags.insert(k, bool(record.chained))
        self._gammas.insert(k, self.latency_model.gamma(record.template_hash))
        self._n += 1
        self._rows_observed += 1
        self._id_checksum_memo = None
        chained_k, lag_k = self._classify_at(k)
        self._chained.insert(k, chained_k)
        self._lags.insert(k, lag_k)
        if k + 1 < self._n:
            # The successor's predecessor changed; refresh its classification
            # before any per-config cascade reads it.
            chained_s, lag_s = self._classify_at(k + 1)
            self._chained.set(k + 1, chained_s)
            self._lags.set(k + 1, lag_s)
        for state in self._states.values():
            state.insert_record(self, k)

    def _classify_at(self, k: int) -> tuple[bool, float]:
        """Scalar twin of ``GapModel.classify_arrays`` element ``k``."""
        if k == 0:
            return False, 0.0
        return self.gap_model.classify_step(
            float(self._end_times.get(k - 1)),
            float(self._raw_arrivals.get(k)),
            self._templates[k - 1],
            self._templates[k],
            bool(self._chained_flags.get(k)),
        )

    def advance_start(self, new_start: float) -> int:
        """Slide the window start forward, evicting aged-out rows.

        Mirrors ``telemetry.query_history`` semantics: rows with
        ``arrival_time < new_start`` leave the window.  The mini-window grid
        is anchored at the window start, so every per-config state amortizes
        one rebuild.  Returns the number of evicted rows.
        """
        if new_start < self.window.start:
            raise ConfigurationError("window start may only advance")
        if new_start == self.window.start:
            return 0
        if new_start > self.window.end:
            raise ConfigurationError("window start may not pass the window end")
        self._refit_check()
        raw = self._raw_arrivals.view()
        count = int(np.searchsorted(raw, new_start, side="left"))
        # The mini-window grid is anchored at the window start, so every
        # folded coverage base is void: amortize one vectorized rebuild.
        for state in self._states.values():
            state.evict()
        del self._records[:count]
        del self._templates[:count]
        for buf in (
            self._raw_arrivals, self._end_times, self._exec_seconds,
            self._cache_hits, self._size_values, self._chained_flags,
            self._chained, self._lags, self._gammas,
        ):
            buf.drop_front(count)
        self._n -= count
        self._rows_evicted += count
        self._id_checksum_memo = None
        self.window = Window(new_start, self.window.end)
        # The boundary record loses its predecessor: reclassify it (the
        # per-config states are dirty and re-derive the cascade on rebuild).
        if self._n:
            chained0, lag0 = self._classify_at(0)
            self._chained.set(0, chained0)
            self._lags.set(0, lag0)
        return count

    # ------------------------------------------------------------- results
    def _state_for(self, config: WarehouseConfig) -> _ExactState:
        self._refit_check()
        key = _config_key(config)
        state = self._states.get(key)
        if state is not None:
            # Touch for LRU: the slider's warm candidate set stays resident.
            self._states[key] = self._states.pop(key)
        else:
            if len(self._states) >= self.max_configs:
                oldest = next(iter(self._states))
                del self._states[oldest]
            state = _ExactState(config, self.n_windows)
            self._states[key] = state
        return state

    def result(self, config: WarehouseConfig) -> ReplayResult:
        """Materialize ``config``'s what-if (bit-identical to a full replay)."""
        return self._state_for(config).materialize(self)

    def warm_configs(self) -> list[tuple]:
        """The per-config states currently held (the slider's candidates)."""
        return list(self._states)

    # ------------------------------------------------------- reconciliation
    def full_replay(self, config: WarehouseConfig) -> ReplayResult:
        """A from-scratch :class:`QueryReplay` over the retained rows."""
        replay = QueryReplay(
            latency_model=self.latency_model,
            gap_model=self.gap_model,
            cluster_predictor=self.cluster_predictor,
            vectorized=True,
        )
        return replay.replay(self.records, config, self.window)

    def verify(self, config: WarehouseConfig) -> tuple[ReplayResult, ReplayResult, float]:
        """(incremental, full, max |divergence|) — 0.0 unless a defect."""
        full = self.full_replay(config)
        inc = self.result(config)
        divergence = max(
            abs(inc.credits - full.credits),
            abs(inc.active_seconds - full.active_seconds),
            abs(inc.cluster_seconds - full.cluster_seconds),
        )
        return inc, full, divergence

    # ----------------------------------------------------------- durability
    def _id_checksum(self) -> str:
        memo = self._id_checksum_memo
        if memo is not None and memo[0] == self._rows_observed:
            return memo[1]
        digest = state_checksum({"ids": sorted(r.query_id for r in self._records)})
        self._id_checksum_memo = (self._rows_observed, digest)
        return digest

    def state_dict(self) -> dict:
        """Canonical streaming state for checkpoint/restore.

        Row contents are recoverable from telemetry, so the checkpoint
        stores the window, counters and an order-independent checksum
        of the ingested row ids; after :meth:`load_state_dict` the owner
        re-feeds the rows and :meth:`verify_restored` confirms the ledger
        re-converged.  Byte-identical round-trip is over this dict.
        """
        return {
            "window": encode_window(self.window),
            "n_records": self._n,
            "rows_observed": self._rows_observed,
            "rows_evicted": self._rows_evicted,
            "fit_key": list(self._fit_key),
            "id_checksum": self._id_checksum(),
        }

    def load_state_dict(self, state: dict) -> None:
        require_keys(
            state,
            (
                "window", "n_records", "rows_observed", "rows_evicted",
                "fit_key", "id_checksum",
            ),
            "IncrementalReplay",
        )
        if self._n:
            raise ConfigurationError("load_state_dict requires an empty ledger")
        self.window = decode_window(state["window"])
        self._restore_expected = (
            int(state["n_records"]), str(state["id_checksum"]),
            int(state["rows_observed"]), int(state["rows_evicted"]),
        )

    def verify_restored(self) -> None:
        """After re-feeding rows post-restore, check we converged."""
        expected = getattr(self, "_restore_expected", None)
        if expected is None:
            return
        n, checksum, rows_observed, rows_evicted = expected
        if self._n != n or self._id_checksum() != checksum:
            raise RecoveryError(
                f"incremental ledger restore mismatch: re-fed {self._n} rows "
                f"(checksum {self._id_checksum()[:12]}), checkpoint recorded "
                f"{n} (checksum {checksum[:12]})"
            )
        # Restore the lifetime counters so the next checkpoint is identical.
        self._rows_observed = rows_observed
        self._rows_evicted = rows_evicted
        self._id_checksum_memo = None
        del self._restore_expected
