"""One benchmark pass in this process: set up, run, check, report.

Started by ``run.py`` (which pins BLAS threads and puts ``src`` on the
path); prints one JSON line.  ``--mode e2e`` times the run with tracing
off: the only wrappers are timers around ``KeeboService.onboard_warehouse``,
``KeeboService.restore`` and the optimizer and durability callbacks handed
to ``Simulation.add_controller``.  Its times are divided by the run's
host-speed factor (``speed.py``).  ``--mode traced`` runs every operation
twice, untraced and with the layer tracer (``tracer.py``) installed, and
reports per-layer numbers in wall seconds; its per-warehouse-day figures
are at reference speed, like the end-to-end ones.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

from repro.core.optimizer import KeeboService
from repro.warehouse.engine import Simulation

import speed
import tracer as layer_tracer
import workloads

SAMPLER = speed.Sampler()
#: Every measurement reads this clock; it excludes the sampler's own time.
clock = SAMPLER.now

#: Set-up repeats per end-to-end run (``setup_s`` is their median): at
#: least the first number, and more while they take under two seconds.
SETUP_REPEATS = (3, 25)
SETUP_BUDGET_SECONDS = 2.0
#: Span-name prefix per controller name prefix.
CONTROLLER_SPANS = {"optimizer[": "core.tick", "durability[": "durability.tick"}


class Timers:
    """Host-latency samples, by boundary."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {
            "onboard": [],
            "tick": [],
            "checkpoint": [],
            "restore": [],
        }

    def timed(self, name: str, fn):
        sink = self.samples[name]

        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(clock() - start)

        return run


def wrapping_add_controller(wrap):
    """``Simulation.add_controller`` that hands optimizer and durability
    callbacks through ``wrap(span name, callback)``."""
    add_controller = Simulation.add_controller

    def patched(self, interval, callback, start=None, name=None):
        for prefix, span in CONTROLLER_SPANS.items():
            if name and name.startswith(prefix):
                callback = wrap(span, callback)
        return add_controller(self, interval, callback, start=start, name=name)

    return patched


def install_timers(timers: Timers) -> None:
    """End-to-end timers: onboard, restore and the controller callbacks."""
    sinks = {"core.tick": "tick", "durability.tick": "checkpoint"}
    Simulation.add_controller = wrapping_add_controller(
        lambda span, callback: timers.timed(sinks[span], callback)
    )
    KeeboService.onboard_warehouse = timers.timed("onboard", KeeboService.onboard_warehouse)
    KeeboService.restore = timers.timed("restore", KeeboService.restore)


def install_tracer(tracer: layer_tracer.Tracer) -> None:
    """Layer spans at every boundary, controller callbacks included."""
    tracer.patch(
        Simulation,
        "add_controller",
        wrapping_add_controller(lambda span, callback: tracer.span_fn(callback, span)),
    )
    layer_tracer.install(tracer)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark (Linux ``VmHWM``)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc/self/status")


def digest(outcomes: list[dict]) -> str:
    """sha256 of the simulated outcomes, floats at full precision."""
    text = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------------ the run
def set_up(workload: str, seed: int, size: int, repeats: tuple[int, int]):
    """Build the inputs ``repeats[0]`` times, or up to ``repeats[1]`` times
    while the builds fit :data:`SETUP_BUDGET_SECONDS`; the last build is
    the one that runs.  Returns it with each build's reference seconds."""
    least, most = repeats
    wall: list[float] = []
    reference: list[float] = []
    ops = None
    while len(wall) < least or (len(wall) < most and sum(wall) < SETUP_BUDGET_SECONDS):
        ops = None  # release the previous build before timing the next
        first = len(SAMPLER.samples)
        start = clock()
        ops = workloads.build(workload, seed, size)
        wall.append(clock() - start)
        reference.append(wall[-1] / SAMPLER.factor_since(first))
    return ops, reference


def run_ops(ops, workdir: Path):
    """(outcomes, errors, wall seconds, reference seconds), per operation.

    Each operation's reference seconds use the speed samples taken while
    it ran, so host drift within a run cancels too."""
    outcomes, errors, wall, reference = [], [], [], []
    for op in ops:
        first = len(SAMPLER.samples)
        start = clock()
        try:
            outcomes.append(workloads.run_op(op, workdir))
        # A raising operation is counted as failed, not fatal to the run.
        except Exception as exc:  # repro-lint: disable=R010
            outcomes.append({"error": type(exc).__name__})
            errors.append(f"{op.scenario.name}: {type(exc).__name__}: {exc}")
        wall.append(clock() - start)
        reference.append(wall[-1] / SAMPLER.factor_since(first))
    return outcomes, errors, wall, reference


def _ms(values: list[float], factor: float) -> list[float]:
    return [v * 1000.0 / factor for v in values]


def end_to_end_metrics(ops, outcomes, wall, reference, setup_reference, timers, factor) -> dict:
    """Every time is in seconds at reference host speed: set-up and
    operations by the speed measured while each ran, the latency samples
    by the run's mean ``factor``."""
    days = sum(op.days for op in ops)
    ok = [o for o in outcomes if "error" not in o]
    metrics = {
        "setup_s": (statistics.median(setup_reference), "s"),
        "s_per_warehouse_day": (sum(reference) / days, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "wall_s_per_warehouse_day": (sum(wall) / days, "s"),
        "speed_factor": (factor, "ratio"),
    }
    samples = timers.samples
    if samples["onboard"]:
        metrics["onboard_s"] = (statistics.median(samples["onboard"]) / factor, "s")
    if samples["tick"]:
        ticks = _ms(samples["tick"], factor)
        metrics["tick_ms_p50"] = (percentile(ticks, 50), "ms")
        metrics["tick_ms_p99"] = (percentile(ticks, 99), "ms")
    if samples["checkpoint"]:
        metrics["checkpoint_ms_p50"] = (percentile(_ms(samples["checkpoint"], factor), 50), "ms")
    if samples["restore"]:
        metrics["restore_s"] = (statistics.median(samples["restore"]) / factor, "s")
    if ok and "savings_fraction" in ok[0]:
        metrics["savings_pct"] = (100.0 * statistics.fmean(o["savings_fraction"] for o in ok), "%")
        metrics["p99_latency_change_pct"] = (
            100.0 * statistics.fmean(o["p99_change_fraction"] for o in ok),
            "%",
        )
    if ok and "relative_error" in ok[0]:
        metrics["whatif_error_pct"] = (100.0 * statistics.fmean(o["relative_error"] for o in ok), "%")
    counts = {name: len(values) for name, values in samples.items() if values}
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": counts,
    }


ALL = ("calls", "total_s", "self_s")
#: Boundary -> the aggregates reported for it (``tracer.BOUNDARIES`` plus
#: the controller callbacks).
SPAN_METRICS = {
    "learning.train": ALL,
    "learning.learn_step": ALL,
    "learning.env_step": ALL,
    "learning.actions.apply": ("calls", "self_s"),
    "warehouse.engine": ("calls", "self_s"),
    "warehouse.billing.credits_in_window": ALL,
    "warehouse.telemetry.query_history": ALL,
    "core.tick": ALL,
    "core.decide": ALL,
    "core.monitor": ALL,
    "core.actuate": ("calls",),
    "costmodel.replay": ALL,
    "costmodel.fit": ALL,
    "costmodel.live_ingest": ALL,
    "obs.provenance.record": ALL,
    "obs.provenance.seal": ALL,
    "durability.tick": ("calls", "self_s"),
    "durability.checkpoint": ALL,
    "durability.snapshot": ALL,
    "durability.restore": ("total_s",),
    "workloads.generate": ALL,
}
LAYERS = ("learning", "warehouse", "core", "costmodel", "obs", "durability", "workloads")


def layer_metrics(tracer: layer_tracer.Tracer, run_seconds: float) -> dict:
    """Per-boundary and per-layer numbers; ``run_seconds`` is the traced
    wall time, set-up included, that the spans fall inside."""
    metrics: dict[str, tuple[float, str]] = {}
    for name, fields in SPAN_METRICS.items():
        values = dict(zip(ALL, tracer.stat(name)))
        for field in fields:
            metrics[f"{name}.{field}"] = (values[field], "count" if field == "calls" else "s")
    counts = tracer.counts
    actuations = metrics["core.actuate.calls"][0]
    checkpoints = metrics["durability.checkpoint.calls"][0]
    metrics.update(
        {
            "warehouse.events": (counts.get("warehouse.events", 0), "count"),
            "core.actuate.success_ratio": (
                counts.get("core.actuate.succeeded", 0) / actuations if actuations else 0.0,
                "ratio",
            ),
            "durability.snapshot.bytes": (counts.get("durability.snapshot.bytes", 0), "bytes"),
            "durability.delta_ratio": (
                counts.get("durability.written.delta", 0) / checkpoints if checkpoints else 0.0,
                "ratio",
            ),
            "workloads.requests": (counts.get("workloads.requests", 0), "count"),
        }
    )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(
                tracer.self_time[i]
                for i, name in enumerate(tracer.names)
                if name.split(".")[0] == layer
            ),
            "s",
        )
    metrics["unspanned.self_s"] = (run_seconds - tracer.top_level_seconds(), "s")
    metrics["trace.spans"] = (len(tracer.span_name), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_interleaved(plain, traced, tracer: layer_tracer.Tracer, workdir: Path):
    """Each operation twice, untraced and traced, alternating which goes
    first; ``run_ops`` results for each copy."""
    runs = {False: ([], [], [], []), True: ([], [], [], [])}
    for i, pair in enumerate(zip(plain, traced)):
        for is_traced in (False, True) if i % 2 == 0 else (True, False):
            if is_traced:
                install_tracer(tracer)
            try:
                parts = run_ops([pair[is_traced]], workdir)
            finally:
                tracer.unpatch()
            for sink, part in zip(runs[is_traced], parts):
                sink.extend(part)
    return runs[False], runs[True]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("e2e", "traced"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    size = workloads.sizing(args.workload, args.seconds)
    workdir = args.out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "size": size,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if args.mode == "e2e":
        timers = Timers()
        install_timers(timers)
        SAMPLER.start()
        ops, setup_reference = set_up(args.workload, args.seed, size, SETUP_REPEATS)
        outcomes, errors, seconds, reference = run_ops(ops, workdir)
        SAMPLER.stop()
        report.update(
            end_to_end_metrics(
                ops, outcomes, seconds, reference, setup_reference, timers, SAMPLER.factor
            )
        )
        report["speed_samples"] = len(SAMPLER.samples)
        report["setup_repeats"] = len(setup_reference)
        report["digest"] = digest(outcomes)
    else:
        # Spans, too, exclude the speed sampler's handler time.
        layer_tracer.clock = SAMPLER.now
        SAMPLER.start()
        plain, _ = set_up(args.workload, args.seed, size, (1, 1))
        tracer = layer_tracer.Tracer()
        install_tracer(tracer)
        setup_start = clock()
        ops, _ = set_up(args.workload, args.seed, size, (1, 1))
        setup_traced = clock() - setup_start
        tracer.unpatch()
        untraced, traced = run_interleaved(plain, ops, tracer, workdir)
        SAMPLER.stop()
        plain_out, plain_errors, plain_seconds, plain_reference = untraced
        outcomes, errors, seconds, reference = traced
        days = sum(op.days for op in ops)
        metrics = layer_metrics(tracer, setup_traced + sum(seconds))
        metrics["trace.s_per_warehouse_day"] = {"value": sum(reference) / days, "unit": "s"}
        metrics["trace.overhead_s_per_warehouse_day"] = {
            "value": (sum(reference) - sum(plain_reference)) / days,
            "unit": "s",
        }
        report["metrics"] = metrics
        report["digest"] = digest(outcomes)
        report["untraced_digest"] = digest(plain_out)
        report["untraced_op_seconds"] = plain_seconds
        errors = plain_errors + errors
        report["missing_boundaries"] = sorted(set(tracer.missing))
        tracer.save(args.out / f"spans-{args.workload}-seed{args.seed}.npz")
    report.update(
        attempted=len(ops) * (1 if args.mode == "e2e" else 2),
        failed=len(errors),
        errors=errors,
        warehouse_days=sum(op.days for op in ops),
        op_seconds=seconds,
    )
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
