"""Shared fixtures and helpers for the test suite.

Hypothesis profiles: tier-1 loads ``tier1`` (derandomized, no example
database), so a local run and CI draw the same examples whatever the
environment or Hypothesis version.  ``HYPOTHESIS_PROFILE=explore`` draws
fresh random examples and saves failures to ``.hypothesis/examples``; a
counterexample found there is committed as an ``@example``, never left as a
flake.  Per-test ``@settings`` values (e.g. ``max_examples``) override the
profile's.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.database import DirectoryBasedExampleDatabase

from repro.common.rng import RngRegistry
from repro.common.simtime import HOUR, Window
from repro.warehouse.account import Account
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRequest, QueryTemplate
from repro.warehouse.types import WarehouseSize

settings.register_profile(
    "tier1", derandomize=True, database=None, print_blob=True, deadline=None
)
settings.register_profile(
    "explore",
    derandomize=False,
    database=DirectoryBasedExampleDatabase(
        Path(__file__).resolve().parent.parent / ".hypothesis" / "examples"
    ),
    print_blob=True,
    deadline=None,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(seed=1234)


def make_template(
    name: str = "q",
    base_work_seconds: float = 10.0,
    scale_exponent: float = 0.8,
    n_partitions: int = 4,
    cold_multiplier: float = 2.0,
) -> QueryTemplate:
    """A small query template with a deterministic partition footprint."""
    from repro.warehouse.cache import PARTITION_BYTES

    partitions = tuple(f"{name}.p{i}" for i in range(n_partitions))
    return QueryTemplate(
        name=name,
        base_work_seconds=base_work_seconds,
        scale_exponent=scale_exponent,
        bytes_scanned=n_partitions * PARTITION_BYTES,
        partitions=partitions,
        cold_multiplier=cold_multiplier,
    )


def make_requests(
    template: QueryTemplate,
    times: list[float],
    chained: bool = False,
    distinct_text: bool = True,
) -> list[QueryRequest]:
    return [
        QueryRequest(
            template=template,
            arrival_time=t,
            instance_key=str(i) if distinct_text else "fixed",
            chained=chained,
        )
        for i, t in enumerate(times)
    ]


def make_account(seed: int = 7, **config_kwargs) -> tuple[Account, str]:
    """Account with one warehouse 'WH' (Small, 120 s suspend by default)."""
    defaults = dict(size=WarehouseSize.S, auto_suspend_seconds=120.0)
    defaults.update(config_kwargs)
    account = Account(seed=seed)
    account.create_warehouse("WH", WarehouseConfig(**defaults))
    return account, "WH"


def drive(account: Account, warehouse: str, requests, until: float) -> None:
    """Schedule requests and run the simulation to ``until``."""
    account.schedule_workload(warehouse, requests)
    account.run_until(until)


@pytest.fixture
def busy_account() -> tuple[Account, str]:
    """An account that already processed an hour of queries."""
    account, wh = make_account()
    template = make_template("steady", base_work_seconds=5.0)
    requests = make_requests(template, [60.0 * i for i in range(30)])
    drive(account, wh, requests, 2 * HOUR)
    return account, wh


def window(start: float, end: float) -> Window:
    return Window(start, end)
