"""Outside-in layer tracer: spans recorded by wrapping public functions.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer` replaces
selected functions on their owning class (or module) with a thin wrapper
that opens a span on entry and closes it on exit.  Spans live in flat
in-memory arrays with a parent link each and are written out once, at the
end of the run.  Every boundary also aggregates ``calls``, ``total_s``
(outermost activations only) and ``self_s`` (span minus its child spans).

Boundaries are declared in :data:`BOUNDARIES`.  A target that no longer
exists (a later refactor moved it) is recorded in :attr:`Tracer.missing`
instead of failing the run; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import timeit
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

clock = timeit.default_timer


class Tracer:
    """In-memory span store plus per-boundary aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open spans: [span index, name id, start, child seconds].
        self._stack: list[list] = []
        self._depth: list[int] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # --------------------------------------------------------------- spans
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        index = len(self.span_name)
        parent = self._stack[-1][0] if self._stack else -1
        start = clock()
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(start)
        self._depth[nid] += 1
        self._stack.append([index, nid, start, 0.0])

    def exit(self) -> None:
        end = clock()
        index, nid, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self._depth[nid] -= 1
        self.calls[nid] += 1
        if self._depth[nid] == 0:
            self.total[nid] += duration
        self.self_time[nid] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def stat(self, name: str) -> tuple[int, float, float]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def top_level_seconds(self) -> float:
        """Seconds covered by root spans (no parent)."""
        starts = np.frombuffer(self.span_start, dtype=np.float64)
        ends = np.frombuffer(self.span_end, dtype=np.float64)
        roots = np.frombuffer(self.span_parent, dtype=np.int32) < 0
        return float((ends[roots] - starts[roots]).sum())

    # ------------------------------------------------------------- wrapping
    def span_fn(
        self,
        fn: Callable,
        name: str,
        hook: "Hook | None" = None,
        reentrant: bool = True,
    ) -> Callable:
        """``fn`` inside a span named ``name``.

        ``hook.after(args, result, tracer, token)`` runs once the span has
        closed, with ``token = hook.before(args)`` taken before it opened.
        With ``reentrant=False`` a call nested inside an open span of the
        same name runs unwrapped, so only the outermost call counts.
        """
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not reentrant and tracer._depth[nid]:
                return fn(*args, **kwargs)
            token = hook.before(args) if hook is not None else None
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook.after(args, result, tracer, token)
            return result

        return wrapper

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        module: str,
        qualname: str,
        name: str,
        hook: "Hook | None" = None,
        reentrant: bool = True,
    ) -> None:
        """Wrap ``module.qualname`` (a function or a plain method)."""
        owner, attr, fn = _resolve(module, qualname)
        if fn is None:
            self.missing.append(f"{module}:{qualname}")
            self.name_id(name)
            return
        self.patch(owner, attr, self.span_fn(fn, name, hook, reentrant))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path: Path) -> None:
        """Write every span (name, parent, start, end) as one ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _resolve(module: str, qualname: str):
    """(owner, attribute, plain function) or (None, None, None)."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None, None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    attr = parts[-1]
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn) or isinstance(fn, (staticmethod, classmethod)):
        return None, None, None
    return owner, attr, fn


# ------------------------------------------------------------ boundary hooks
class Hook:
    """Counts taken around one boundary call (no-ops by default)."""

    def before(self, args):
        return None

    def after(self, args, result, tracer: Tracer, token) -> None:
        return None


class EngineEvents(Hook):
    """Account.run_until: events that account's engine dispatched."""

    def before(self, args):
        return args[0].sim.processed_events

    def after(self, args, result, tracer, token):
        tracer.count("warehouse.events", args[0].sim.processed_events - token)


class Requests(Hook):
    def after(self, args, result, tracer, token):
        tracer.count("workloads.requests", len(result))


class Actuation(Hook):
    def after(self, args, result, tracer, token):
        tracer.count("core.actuate.succeeded", int(bool(getattr(result, "succeeded", False))))


class CheckpointKind(Hook):
    """KeeboService.checkpoint returns "snapshot" or "delta"."""

    def after(self, args, result, tracer, token):
        tracer.count(f"durability.written.{result}")


class SnapshotBytes(Hook):
    def after(self, args, result, tracer, token):
        path = getattr(args[0], "snapshot_path", None)
        if path is not None and Path(path).exists():
            tracer.count("durability.snapshot.bytes", Path(path).stat().st_size)


#: (module, qualname, span name, hook) for every measured public function.
#: Controller callbacks (``core.tick``, ``durability.tick``) are wrapped
#: separately, at ``add_controller``.
BOUNDARIES = (
    ("repro.learning.trainer", "OfflineTrainer.run", "learning.train", None),
    ("repro.learning.agent", "DQNAgent.learn_step", "learning.learn_step", None),
    ("repro.learning.env", "WarehouseEnv.step", "learning.env_step", None),
    ("repro.learning.actions", "ActionSpace.apply", "learning.actions.apply", None),
    ("repro.warehouse.account", "Account.run_until", "warehouse.engine", EngineEvents()),
    (
        "repro.warehouse.billing",
        "BillingMeter.credits_in_window",
        "warehouse.billing.credits_in_window",
        None,
    ),
    (
        "repro.warehouse.telemetry",
        "TelemetryStore.query_history",
        "warehouse.telemetry.query_history",
        None,
    ),
    ("repro.core.smart_model", "SmartModel.next_action", "core.decide", None),
    ("repro.core.monitoring", "Monitor.snapshot", "core.monitor", None),
    ("repro.core.actuator", "Actuator.apply", "core.actuate", Actuation()),
    ("repro.costmodel.replay", "QueryReplay.replay", "costmodel.replay", None),
    ("repro.costmodel.model", "WarehouseCostModel.fit", "costmodel.fit", None),
    ("repro.core.ledger", "LiveLedger.ingest", "costmodel.live_ingest", None),
    ("repro.obs.provenance", "ProvenanceLog.record", "obs.provenance.record", None),
    ("repro.obs.provenance", "ProvenanceLog.seal_until", "obs.provenance.seal", None),
    ("repro.core.optimizer", "KeeboService.checkpoint", "durability.checkpoint", CheckpointKind()),
    (
        "repro.durability.checkpoint",
        "CheckpointStore.write_snapshot",
        "durability.snapshot",
        SnapshotBytes(),
    ),
    ("repro.core.optimizer", "KeeboService.restore", "durability.restore", None),
)


def workload_generators() -> list[tuple[str, str]]:
    """(module, qualname) of every ``generate`` defined in ``repro.workloads``."""
    package = importlib.import_module("repro.workloads")
    targets = []
    for info in sorted(pkgutil.iter_modules(package.__path__), key=lambda m: m.name):
        module = importlib.import_module(f"repro.workloads.{info.name}")
        for attr in sorted(vars(module)):
            cls = vars(module)[attr]
            if (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and "generate" in cls.__dict__
            ):
                targets.append((module.__name__, f"{cls.__name__}.generate"))
    return targets


def install(tracer: Tracer) -> None:
    """Wrap every boundary; ``workloads.generate`` counts outermost calls."""
    for module, qualname, name, hook in BOUNDARIES:
        tracer.wrap(module, qualname, name, hook)
    for module, qualname in workload_generators():
        tracer.wrap(module, qualname, "workloads.generate", Requests(), reentrant=False)
