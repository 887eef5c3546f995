"""The benchmark's three workloads: inputs from a seed, one run per warehouse.

Every workload is a list of *operations*; one operation is one simulated
warehouse run.  :func:`build` makes a workload's inputs (scenario build,
``Workload.generate`` and ``schedule_workload``: the set-up) and
:func:`run_op` runs one operation and returns its checked, simulated
outcome.  Host-time measurement lives in ``bench.py``; nothing here reads
a clock.

* ``fleet``: the §7.1 before/after protocol (``run_before_after``) over
  the six ``fleet_scenarios`` archetypes, serially: :data:`FLEET_DAYS` days
  each, KWO onboarded at day 4.
* ``simulate``: the §7.2 what-if accuracy protocol
  (``run_cost_model_accuracy``, no optimizer) over the four fig5 warehouse
  characters, each run for :data:`SIMULATE_DAYS` days.
* ``long_service``: one ``KeeboService`` live for one simulated day per
  second of ``--seconds`` (KWO from day 3), with hourly checkpoints and an
  exact live ledger, then one ``crash()`` + ``restore()``.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.common.rng import RngRegistry
from repro.common.simtime import DAY, HOUR, Window
from repro.core.optimizer import KeeboService, OptimizerConfig
from repro.experiments.runner import (
    BeforeAfterResult,
    run_before_after,
    run_cost_model_accuracy,
)
from repro.experiments.scenarios import Scenario, fig5_scenarios, fleet_scenarios
from repro.portal.dashboards import savings_dashboard
from repro.warehouse.account import Account
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import WarehouseSize
from repro.workloads.mixed import make_predictable_workload

WORKLOADS = ("fleet", "simulate", "long_service")

#: Nominal host seconds of one fleet round (six archetypes) and of one
#: simulate set (four fig5 characters) on a 2-core x86 box; ``--seconds``
#: is divided by these to size a run, which holds at least one of each.
FLEET_ROUND_SECONDS = 26.0
SIMULATE_SET_SECONDS = 1.75
SIMULATE_DAYS = 7
#: The archetypes' own horizon is 10 days; 7 keeps a run inside its budget
#: while leaving three live days after onboarding at day 4.
FLEET_DAYS = 7
LONG_SERVICE_KEEBO_DAY = 3
CHECKPOINT_CADENCE = HOUR


class OperationFailed(Exception):
    """A run finished but its output failed a correctness check."""


@dataclass
class Op:
    """One operation: a prepared scenario plus how to run it."""

    workload: str
    scenario: Scenario
    days: int


def seed_for(seed: int, k: int) -> int:
    """The k-th derived input seed of a run (non-negative, reproducible)."""
    return (int(seed) * 7919 + 1000 * k) % (2**31)


def sizing(workload: str, seconds: float) -> int:
    """Rounds (fleet), sets (simulate) or days (long_service) for a run."""
    if workload == "fleet":
        return max(1, round(seconds / FLEET_ROUND_SECONDS))
    if workload == "simulate":
        return max(1, round(seconds / SIMULATE_SET_SECONDS))
    return max(LONG_SERVICE_KEEBO_DAY + 2, round(seconds))


def prepare(scenario: Scenario) -> int:
    """Generate and schedule a scenario's arrivals now, not inside its run.

    The protocols call ``scenario.schedule()`` themselves; it becomes a
    no-op returning the request count, so the run times no set-up.
    """
    requests = scenario.workload.generate(Window(0.0, scenario.horizon))
    scenario.account.schedule_workload(scenario.warehouse, requests)
    count = len(requests)
    scenario.schedule = lambda: count
    return count


def long_service_scenario(seed: int, days: int) -> Scenario:
    """A steady ETL+BI warehouse that KWO serves live for ``days`` days."""
    account = Account(name="long_service", seed=seed)
    account.create_warehouse(
        "SERVICE_WH",
        WarehouseConfig(size=WarehouseSize.L, auto_suspend_seconds=900.0, max_clusters=3),
    )
    return Scenario(
        name="long_service",
        account=account,
        warehouse="SERVICE_WH",
        workload=make_predictable_workload(RngRegistry(seed + 1)),
        total_days=days,
        keebo_day=LONG_SERVICE_KEEBO_DAY,
        optimizer_config=OptimizerConfig(
            training_window=3 * DAY,
            onboarding_episodes=6,
            episode_length=1 * DAY,
            retrain_interval=24 * HOUR,
            retrain_episodes=1,
            live_ledger=True,
            live_ledger_mode="exact",
        ),
    )


def build(workload: str, seed: int, size: int) -> list[Op]:
    """The run's inputs, generated and scheduled (the timed set-up)."""
    ops: list[Op] = []
    if workload == "fleet":
        for k in range(size):
            for scenario in fleet_scenarios(6, seed=seed_for(seed, k)):
                scenario.total_days = FLEET_DAYS
                ops.append(Op(workload, scenario, FLEET_DAYS))
    elif workload == "simulate":
        for k in range(size):
            for scenario in fig5_scenarios(seed=seed_for(seed, k)):
                scenario.total_days = SIMULATE_DAYS
                ops.append(Op(workload, scenario, SIMULATE_DAYS))
    elif workload == "long_service":
        ops.append(Op(workload, long_service_scenario(seed_for(seed, 0), size), size))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    for op in ops:
        prepare(op.scenario)
    return ops


# ------------------------------------------------------------------ running
def _check_attribution(optimizer) -> None:
    summary = optimizer.provenance.summary(optimizer.ledger.total_savings_credits())
    if not summary.conserved:
        raise OperationFailed(
            f"attribution not conserved: {summary.attributed_credits!r} attributed "
            f"vs {summary.ledger_credits!r} in the ledger"
        )


def _check_live_ledger(optimizer) -> list[float]:
    """Aligned exact reconciliations must diverge by exactly 0.0."""
    ledger = optimizer.live_ledger
    if ledger is None:
        return []
    divergences = [e.divergence for e in ledger.reconciliations if e.aligned]
    if not divergences:
        raise OperationFailed("the live ledger closed no aligned period to reconcile")
    bad = [d for d in divergences if d != 0.0]
    if bad:
        raise OperationFailed(f"live ledger diverged on {len(bad)} reconciliations: {bad[:3]}")
    return divergences


def _before_after_outcome(result: BeforeAfterResult) -> dict:
    return {
        "savings_fraction": result.savings_fraction,
        "p99_change_fraction": result.p99_change_fraction(),
        "estimated_savings_fraction": result.estimated_savings_fraction,
        "decision_counts": dict(sorted(result.decision_counts.items())),
        "guardrail_vetoes": result.guardrail_vetoes,
        "daily_credits": list(result.dashboard.daily_credits),
    }


def run_fleet_op(op: Op) -> dict:
    result, optimizer = run_before_after(op.scenario)
    _check_attribution(optimizer)
    return _before_after_outcome(result)


def run_simulate_op(op: Op) -> dict:
    (row,) = run_cost_model_accuracy([op.scenario], workers=0)
    if not (row.actual_credits > 0.0 and row.estimated_credits >= 0.0):
        raise OperationFailed(
            f"{row.warehouse}: actual {row.actual_credits!r}, estimated {row.estimated_credits!r}"
        )
    return {
        "warehouse": row.warehouse,
        "actual_credits": row.actual_credits,
        "estimated_credits": row.estimated_credits,
        "relative_error": row.relative_error,
    }


def _service_state(service: KeeboService) -> dict:
    return {
        "optimizers": {wh: service.optimizers[wh].state_dict() for wh in sorted(service.optimizers)},
        "rng_states": service.account.rngs.export_states(("keebo.", "faults.")),
    }


def run_long_service_op(op: Op, workdir: Path) -> dict:
    """Live service with hourly checkpoints; crash + restore at the end."""
    scenario = op.scenario
    manifest = scenario.manifest()
    scenario.schedule()
    account = scenario.account
    account.run_until(scenario.keebo_start)
    service = KeeboService(account)
    service.onboard_warehouse(
        scenario.warehouse,
        slider=scenario.slider,
        constraints=scenario.constraints,
        config=scenario.optimizer_config,
    )
    directory = workdir / "checkpoints"
    shutil.rmtree(directory, ignore_errors=True)
    service.enable_checkpoints(
        directory, CHECKPOINT_CADENCE, config_hash=manifest.config_hash
    )
    account.run_until(scenario.horizon)
    optimizer = service.optimizer(scenario.warehouse)
    divergences = _check_live_ledger(optimizer)
    service.checkpoint()
    before = _service_state(service)
    service.crash()
    service.restore(
        directory,
        slider=scenario.slider,
        constraints=scenario.constraints,
        optimizer_config=scenario.optimizer_config,
        config_hash=manifest.config_hash,
    )
    if _service_state(service) != before:
        raise OperationFailed("state after restore differs from the state before the crash")
    optimizer = service.optimizer(scenario.warehouse)
    estimate = optimizer.estimate_savings(Window(scenario.keebo_start, scenario.horizon))
    optimizer.shutdown()
    _check_attribution(optimizer)
    shutil.rmtree(directory, ignore_errors=True)
    dashboard = savings_dashboard(
        CloudWarehouseClient(account),
        scenario.warehouse,
        Window(0.0, scenario.horizon),
        scenario.keebo_start,
    )
    result = BeforeAfterResult(
        scenario=scenario.name,
        dashboard=dashboard,
        decision_counts=optimizer.decision_counts(),
        estimated_savings_fraction=estimate.savings_fraction,
        guardrail_vetoes=optimizer.smart_model.guardrail_vetoes,
    )
    outcome = _before_after_outcome(result)
    outcome["reconciliations"] = len(divergences)
    return outcome


def run_op(op: Op, workdir: Path) -> dict:
    """Run one operation; raises :class:`OperationFailed` on a bad output."""
    if op.workload == "fleet":
        return run_fleet_op(op)
    if op.workload == "simulate":
        return run_simulate_op(op)
    return run_long_service_op(op, workdir)
