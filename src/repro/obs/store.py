"""The fleet telemetry store: queryable, mergeable decision history.

``repro.obs`` traces are per-run JSONL streams; a fleet needs the same
facts *across* runs — "show me every decision warehouse X made during an
open alert", "which decisions earned the most credits", "how did the
prediction error trend by hour".  :class:`FleetStore` is that layer: an
append-only collection of normalized rows extracted from trace records
(decision / outcome / attribution provenance events, alert lifecycle
events, savings reports, manifests), with

* **byte-stable JSONL persistence** — ``to_jsonl()`` is sorted-key compact
  JSON in insertion order, so two same-seed runs ingest to identical
  bytes (the same contract as :meth:`repro.obs.trace.TraceSink.to_jsonl`);
* **deterministic merge** — :meth:`merge` appends another store's rows in
  its insertion order, the same submission-order discipline as
  :meth:`repro.obs.trace.Recorder.merge_payload`, so ingesting worker
  payloads in submission order equals ingesting the serial run;
* **indexed queries** — by warehouse, row kind, sim-time window, run, and
  decision-during-alert overlap joins;
* **rollups and top-k views** — down-sampled per-bucket aggregates and
  the best/worst decisions by attributed savings or prediction regret.

Rows are plain dicts (``run``, ``kind``, ``warehouse``, ``time``, ``seq``,
``data``); the store never mutates a row after append.
"""

from __future__ import annotations

import json
import pathlib

from repro.obs.metrics import ObservabilityError

#: Bumped on any incompatible change to the store row shapes.
STORE_SCHEMA_VERSION = 1

#: Trace event names ingested into the store, mapped to row kinds.
_EVENT_KINDS = {
    "provenance.decision": "decision",
    "provenance.outcome": "outcome",
    "provenance.attribution": "attribution",
    "alert.fire": "alert_fire",
    "alert.resolve": "alert_resolve",
    "optimizer.savings_report": "savings_report",
}


class FleetStore:
    """An append-only, queryable store of fleet decision telemetry."""

    def __init__(self):
        self.rows: list[dict] = []
        # Insertion-order row indexes (positions into self.rows).
        self._by_kind: dict[str, list[int]] = {}
        self._by_warehouse: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------- ingestion
    def append(self, row: dict) -> None:
        """Append one normalized row (used by ingestion and load)."""
        for key in ("run", "kind", "warehouse", "time"):
            if key not in row:
                raise ObservabilityError(f"store row missing {key!r}: {row!r}")
        position = len(self.rows)
        self.rows.append(row)
        self._by_kind.setdefault(row["kind"], []).append(position)
        self._by_warehouse.setdefault(row["warehouse"], []).append(position)

    def ingest_trace_records(self, records: list[dict], run: str) -> int:
        """Extract store rows from parsed trace records, in trace order.

        Returns the number of rows ingested.  Unknown record/event types
        are skipped — the store holds the fleet-level facts, not spans.
        """
        ingested = 0
        for record in records:
            rtype = record.get("type")
            if rtype == "manifest":
                self.append(
                    {
                        "run": run,
                        "kind": "manifest",
                        "warehouse": "",
                        "time": 0.0,
                        "seq": None,
                        "data": {
                            k: record.get(k)
                            for k in ("scenario", "seed", "config_hash", "slider")
                        },
                    }
                )
                ingested += 1
                continue
            if rtype != "event":
                continue
            kind = _EVENT_KINDS.get(record.get("name", ""))
            if kind is None:
                continue
            attrs = record.get("attrs", {})
            self.append(
                {
                    "run": run,
                    "kind": kind,
                    "warehouse": str(attrs.get("warehouse", "")),
                    "time": float(record["time"]),
                    "seq": attrs.get("seq"),
                    "data": attrs,
                }
            )
            ingested += 1
        return ingested

    def merge(self, other: "FleetStore") -> int:
        """Append another store's rows in its insertion order.

        Submission-order merging is what makes workers=N ingestion equal
        serial ingestion byte for byte (docs/PERFORMANCE.md discipline).
        """
        for row in other.rows:
            self.append(row)
        return len(other.rows)

    # ----------------------------------------------------------- persistence
    def to_jsonl(self) -> str:
        """Byte-stable export: one sorted-key compact row per line."""
        return "".join(
            json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
            for row in self.rows
        )

    def dump(self, path: str | pathlib.Path) -> None:
        pathlib.Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "FleetStore":
        store = cls()
        text = pathlib.Path(path).read_text(encoding="utf-8")
        for i, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(f"{path}:{i}: not JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise ObservabilityError(f"{path}:{i}: not a store row")
            store.append(row)
        return store

    # --------------------------------------------------------------- queries
    def _candidates(self, warehouse: str | None, kind: str | None) -> list[int]:
        """Intersect the narrowest applicable indexes, insertion-ordered."""
        pools = []
        if kind is not None:
            pools.append(self._by_kind.get(kind, []))
        if warehouse is not None:
            pools.append(self._by_warehouse.get(warehouse, []))
        if not pools:
            return list(range(len(self.rows)))
        if len(pools) == 1:
            return pools[0]
        narrow, wide = sorted(pools, key=len)
        wide_set = set(wide)
        return [p for p in narrow if p in wide_set]

    def query(
        self,
        warehouse: str | None = None,
        kind: str | None = None,
        since: float | None = None,
        until: float | None = None,
        run: str | None = None,
    ) -> list[dict]:
        """Rows matching every given filter, in insertion order."""
        out = []
        for position in self._candidates(warehouse, kind):
            row = self.rows[position]
            if since is not None and row["time"] < since:
                continue
            if until is not None and row["time"] >= until:
                continue
            if run is not None and row["run"] != run:
                continue
            out.append(row)
        return out

    def runs(self) -> list[str]:
        """Distinct run labels, in first-seen order."""
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row["run"], None)
        return list(seen)

    def warehouses(self) -> list[str]:
        return sorted(w for w in self._by_warehouse if w)

    def decisions(
        self,
        warehouse: str | None = None,
        decision_kind: str | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[dict]:
        """Decision rows joined with their outcome (when sealed).

        Returns one dict per decision with the decision's ``data`` plus
        ``run`` and, when the outcome event is present, an ``outcome`` key.
        """
        outcomes: dict[tuple[str, str, object], dict] = {}
        for row in self.query(warehouse=warehouse, kind="outcome"):
            outcomes[(row["run"], row["warehouse"], row["seq"])] = row["data"]
        joined = []
        for row in self.query(
            warehouse=warehouse, kind="decision", since=since, until=until
        ):
            if decision_kind is not None and row["data"].get("kind") != decision_kind:
                continue
            joined.append(
                {
                    "run": row["run"],
                    "warehouse": row["warehouse"],
                    "time": row["time"],
                    **row["data"],
                    "outcome": outcomes.get(
                        (row["run"], row["warehouse"], row["seq"])
                    ),
                }
            )
        return joined

    def alert_windows(
        self, warehouse: str | None = None, prefix: str | None = None
    ) -> list[dict]:
        """Fire→resolve intervals per alert, matched within each run.

        Unresolved alerts get an open end (``None``).
        """
        windows: list[dict] = []
        open_alerts: dict[tuple[str, str], int] = {}
        for row in self.query(warehouse=warehouse):
            if row["kind"] not in ("alert_fire", "alert_resolve"):
                continue
            name = str(row["data"].get("alert", ""))
            if prefix is not None and not name.startswith(prefix):
                continue
            key = (row["run"], name)
            if row["kind"] == "alert_fire":
                if key not in open_alerts:
                    open_alerts[key] = len(windows)
                    windows.append(
                        {
                            "run": row["run"],
                            "alert": name,
                            "warehouse": row["warehouse"],
                            "start": row["time"],
                            "end": None,
                        }
                    )
            else:
                position = open_alerts.pop(key, None)
                if position is not None:
                    windows[position]["end"] = row["time"]
        return windows

    def decisions_during_alerts(self, prefix: str | None = None) -> list[dict]:
        """Decisions whose governed window overlaps an open alert in the
        same run — "what did the optimizer do while things were on fire"."""
        alert_spans = self.alert_windows(prefix=prefix)
        out = []
        for decision in self.decisions():
            start = decision["time"]
            end = start + float(decision.get("interval", 0.0))
            hits = [
                span["alert"]
                for span in alert_spans
                if span["run"] == decision["run"]
                and span["start"] < end
                and (span["end"] is None or start < span["end"])
            ]
            if hits:
                out.append({**decision, "alerts": sorted(set(hits))})
        return out

    # ------------------------------------------------------ watchtower views
    def savings_credits_by_warehouse(self) -> dict[str, float]:
        """Total attributed savings credits per warehouse (name-sorted).

        Sums every attribution row's shares — the same credits the
        conservation check in ``obs attribution`` ties to the ledger.
        """
        totals: dict[str, float] = {}
        for position in self._by_kind.get("attribution", []):
            row = self.rows[position]
            credited = sum(
                float(share["credits"])
                for share in row["data"].get("shares", [])
            )
            totals[row["warehouse"]] = totals.get(row["warehouse"], 0.0) + credited
        return {name: totals[name] for name in sorted(totals)}

    def alert_fire_counts(self) -> dict[tuple[str, str], int]:
        """Alert fire counts per ``(run, alert name)``, insertion-keyed."""
        counts: dict[tuple[str, str], int] = {}
        for position in self._by_kind.get("alert_fire", []):
            row = self.rows[position]
            key = (row["run"], str(row["data"].get("alert", "")))
            counts[key] = counts.get(key, 0) + 1
        return counts

    def calibration_by_warehouse(self) -> dict[str, dict]:
        """Per-warehouse what-if calibration from sealed outcomes.

        One dict per warehouse (name-sorted): sealed/predicted counts and
        the mean absolute / signed prediction error in credits — the
        drift surface the watchtower monitors across runs.
        """
        out: dict[str, dict] = {}
        for position in self._by_kind.get("outcome", []):
            row = self.rows[position]
            agg = out.setdefault(
                row["warehouse"],
                {
                    "n_sealed": 0,
                    "n_with_prediction": 0,
                    "sum_abs_error_credits": 0.0,
                    "sum_error_credits": 0.0,
                },
            )
            agg["n_sealed"] += 1
            error = row["data"].get("error_credits")
            if error is not None:
                agg["n_with_prediction"] += 1
                agg["sum_abs_error_credits"] += abs(float(error))
                agg["sum_error_credits"] += float(error)
        for agg in out.values():
            n = agg["n_with_prediction"]
            agg["mean_abs_error_credits"] = (
                agg["sum_abs_error_credits"] / n if n else 0.0
            )
            agg["mean_error_credits"] = agg["sum_error_credits"] / n if n else 0.0
        return {name: out[name] for name in sorted(out)}

    # --------------------------------------------------------------- rollups
    def rollup(self, bucket_seconds: float = 3600.0) -> list[dict]:
        """Down-sampled per-(run, warehouse, bucket) aggregates.

        One row per bucket with decision counts by kind, realized and
        predicted credits, and the summed absolute prediction error.
        Rows are sorted by (run, warehouse, bucket) for stable rendering.
        """
        if bucket_seconds <= 0:
            raise ObservabilityError("bucket_seconds must be positive")
        buckets: dict[tuple[str, str, int], dict] = {}

        def bucket_for(row: dict) -> dict:
            key = (row["run"], row["warehouse"], int(row["time"] // bucket_seconds))
            if key not in buckets:
                buckets[key] = {
                    "run": key[0],
                    "warehouse": key[1],
                    "bucket": key[2],
                    "bucket_start": key[2] * bucket_seconds,
                    "decisions": {},
                    "realized_credits": 0.0,
                    "predicted_credits": 0.0,
                    "abs_error_credits": 0.0,
                    "savings_credits": 0.0,
                }
            return buckets[key]

        for row in self.rows:
            if row["kind"] == "decision":
                agg = bucket_for(row)
                kind = str(row["data"].get("kind", "?"))
                agg["decisions"][kind] = agg["decisions"].get(kind, 0) + 1
            elif row["kind"] == "outcome":
                agg = bucket_for(row)
                agg["realized_credits"] += float(
                    row["data"].get("realized_credits") or 0.0
                )
                agg["predicted_credits"] += float(
                    row["data"].get("predicted_credits") or 0.0
                )
                error = row["data"].get("error_credits")
                if error is not None:
                    agg["abs_error_credits"] += abs(float(error))
            elif row["kind"] == "attribution":
                agg = bucket_for(row)
                agg["savings_credits"] += float(
                    row["data"].get("savings_credits") or 0.0
                )
        return [buckets[key] for key in sorted(buckets)]

    def top_savings(self, k: int = 10) -> list[dict]:
        """The k decisions credited with the most savings.

        Joins attribution shares back to their decisions; the synthetic
        unattributed share (seq < 0) is excluded.
        """
        credited: dict[tuple[str, str, int], float] = {}
        for row in self._by_kind.get("attribution", []):
            attribution = self.rows[row]
            for share in attribution["data"].get("shares", []):
                seq = share.get("decision_seq")
                if seq is None or seq < 0:
                    continue
                key = (attribution["run"], attribution["warehouse"], int(seq))
                credited[key] = credited.get(key, 0.0) + float(share["credits"])
        ranked = sorted(
            credited.items(), key=lambda item: (-item[1], item[0])
        )[: max(k, 0)]
        decisions = {
            (d["run"], d["warehouse"], d["seq"]): d for d in self.decisions()
        }
        return [
            {
                "run": run,
                "warehouse": warehouse,
                "seq": seq,
                "credits": credits,
                "decision": decisions.get((run, warehouse, seq)),
            }
            for (run, warehouse, seq), credits in ranked
        ]

    def top_regret(self, k: int = 10) -> list[dict]:
        """The k sealed decisions whose realized cost most exceeded the
        prediction (positive ``error_credits`` = the what-if was too rosy)."""
        rows = []
        for position in self._by_kind.get("outcome", []):
            row = self.rows[position]
            error = row["data"].get("error_credits")
            if error is None:
                continue
            rows.append(
                {
                    "run": row["run"],
                    "warehouse": row["warehouse"],
                    "seq": row["seq"],
                    "time": row["time"],
                    "error_credits": float(error),
                    "predicted_credits": row["data"].get("predicted_credits"),
                    "realized_credits": row["data"].get("realized_credits"),
                }
            )
        rows.sort(
            key=lambda r: (-r["error_credits"], r["run"], r["warehouse"], r["seq"])
        )
        rows = rows[: max(k, 0)]
        decisions = {
            (d["run"], d["warehouse"], d["seq"]): d for d in self.decisions()
        }
        for row in rows:
            row["decision"] = decisions.get(
                (row["run"], row["warehouse"], row["seq"])
            )
        return rows
