"""Bit-identity of the cached action lattice against per-action oracles.

``ActionSpace.apply``/``resulting_configs`` read a per-config lattice row
and ``SmartModel._admissible_mask`` tests whole rows as arrays.  The
reference implementations below are the per-action code they replaced:
``np.clip`` apply and the per-action mask loop.  Every field of every
resulting config must match the oracle in value, type and sign.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simtime import DAY
from repro.core.constraints import ConstraintRule, ConstraintSet
from repro.core.sliders import SliderPosition, slider_params
from repro.core.smart_model import SmartModel
from repro.learning.actions import ActionSpace
from repro.warehouse.config import MAX_CLUSTER_COUNT, WarehouseConfig
from repro.warehouse.types import ScalingPolicy, WarehouseSize

CONFIG_FIELDS = (
    "size",
    "auto_suspend_seconds",
    "min_clusters",
    "max_clusters",
    "scaling_policy",
    "max_concurrency",
)


# ------------------------------------------------------------------ oracles
def reference_apply(space: ActionSpace, config, action):
    """Per-action apply with two scalar ``np.clip`` calls."""
    new_size = config.size.step(action.resize_delta)
    new_size = WarehouseSize(
        int(np.clip(new_size.value, space.min_size.value, space.max_size.value))
    )
    new_max = int(
        np.clip(
            config.max_clusters + action.max_cluster_delta,
            1,
            min(space.original.max_clusters, MAX_CLUSTER_COUNT),
        )
    )
    new_min = min(config.min_clusters, new_max)
    suspend = (
        config.auto_suspend_seconds
        if action.keeps_suspend
        else float(action.suspend_seconds)
    )
    return config.with_changes(
        size=new_size,
        auto_suspend_seconds=suspend,
        max_clusters=new_max,
        min_clusters=new_min,
    )


def reference_constraint_mask(constraints, t, current, space):
    active = constraints.active_rules(t)
    if not active:
        return np.ones(len(space), dtype=bool)
    mask = np.zeros(len(space), dtype=bool)
    for i, action in enumerate(space.actions):
        proposed = reference_apply(space, current, action)
        mask[i] = all(r.permits(current, proposed) for r in active)
    return mask


def reference_admissible_mask(model: SmartModel, now, current, confidence):
    """The per-action mask loop, one apply per surviving action."""
    space = model.action_space
    mask = reference_constraint_mask(model.constraints, now, current, space)
    c = confidence
    max_suspend = max(a.suspend_seconds for a in space.actions)
    anchor = max(model.original.auto_suspend_seconds, max_suspend)
    if model.original.auto_suspend_seconds <= 0:
        anchor = 4 * max_suspend
    floor = max(model.params.min_auto_suspend, 1.0)
    suspend_floor = floor * (anchor / floor) ** (1.0 - c)
    downsize_depth = int(c * model.params.max_downsize_steps)
    size_floor = model.original.size.step(-downsize_depth)
    size_ceiling = model.original.size.step(model.params.max_upsize_steps)
    for i, action in enumerate(space.actions):
        if not mask[i]:
            continue
        if not action.keeps_suspend and action.suspend_seconds < suspend_floor - 1e-9:
            mask[i] = False
            continue
        target = reference_apply(space, current, action)
        if not size_floor <= target.size <= size_ceiling:
            mask[i] = False
    if not mask.any():
        mask[space.noop_index] = True
    return mask


def assert_identical(got, want):
    """Equal field by field, including each value's type and float sign."""
    assert got == want
    for name in CONFIG_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b), (name, a, b)
        assert repr(a) == repr(b), (name, a, b)
        if isinstance(a, float):
            assert math.copysign(1.0, a) == math.copysign(1.0, b), (name, a, b)


# --------------------------------------------------------------- strategies
SUSPENDS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 60, 60.0, 300, 300.0, 600, 600.0, 3600]),
    st.floats(min_value=0.0, max_value=7200.0),
    st.integers(min_value=0, max_value=7200),
)


@st.composite
def configs(draw):
    max_clusters = draw(st.integers(1, MAX_CLUSTER_COUNT))
    return WarehouseConfig(
        size=draw(st.sampled_from(list(WarehouseSize))),
        auto_suspend_seconds=draw(SUSPENDS),
        min_clusters=draw(st.integers(1, max_clusters)),
        max_clusters=max_clusters,
        scaling_policy=draw(st.sampled_from(list(ScalingPolicy))),
        max_concurrency=draw(st.integers(1, 16)),
    )


@st.composite
def spaces(draw):
    return ActionSpace(
        draw(configs()),
        max_size_headroom=draw(st.integers(0, 3)),
        min_size=draw(st.sampled_from(list(WarehouseSize)[:4])),
    )


def twin(config):
    """An equal config whose pass-through values have other types (or sign).

    ``apply`` hands back the caller's suspend value, ``min_clusters`` and
    ``max_concurrency`` unchanged, so a row cached for ``config`` must not
    serve its twin.
    """
    s = config.auto_suspend_seconds
    if isinstance(s, int):
        s = float(s)
    elif s == 0.0:
        s = -s
    elif s.is_integer():
        s = int(s)
    return config.with_changes(
        auto_suspend_seconds=s,
        min_clusters=np.int64(config.min_clusters),
        max_concurrency=np.int64(config.max_concurrency),
    )


rule_strategy = st.builds(
    ConstraintRule,
    name=st.just("r"),
    weekdays=st.sets(st.integers(0, 6), min_size=1, max_size=7).map(tuple),
    start_hour=st.floats(min_value=0.0, max_value=24.0),
    end_hour=st.floats(min_value=0.0, max_value=24.0),
    min_size=st.one_of(st.none(), st.sampled_from(list(WarehouseSize)[:5])),
    max_size=st.one_of(st.none(), st.sampled_from(list(WarehouseSize)[5:])),
    min_clusters=st.one_of(st.none(), st.integers(1, 6)),
    allow_downsize=st.booleans(),
    allow_upsize=st.booleans(),
    allow_cluster_changes=st.booleans(),
    min_auto_suspend=st.one_of(st.none(), st.floats(min_value=0.0, max_value=900.0)),
)


def mask_model(space, rules, slider):
    """A SmartModel with only what ``_admissible_mask`` reads."""
    return SmartModel(
        client=None,
        warehouse="WH",
        agent=None,
        action_space=space,
        features=None,
        cost_model=None,
        constraints=ConstraintSet(list(rules)),
        params=slider_params(slider),
    )


# -------------------------------------------------------------- properties
class TestLatticeMatchesOracle:
    @given(spaces(), st.lists(configs(), min_size=1, max_size=4))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_apply_and_resulting_configs(self, space, starts):
        # One space serves every start and its twin, so a cached row must
        # never leak one caller's value types or sign into another's.
        for config in starts:
            for current in (config, twin(config), config):
                rows = space.resulting_configs(current)
                assert len(rows) == len(space)
                for i, action in enumerate(space.actions):
                    want = reference_apply(space, current, action)
                    assert_identical(space.apply(current, action), want)
                    assert_identical(rows[i], want)

    @given(
        spaces(),
        configs(),
        st.lists(rule_strategy, max_size=3),
        st.sampled_from(list(SliderPosition)),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=14 * DAY),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_admissible_mask(self, space, current, rules, slider, confidence, now):
        model = mask_model(space, rules, slider)
        for config in (current, twin(current)):
            want = reference_admissible_mask(model, now, config, confidence)
            # First call builds the row, the second reads it.
            for _ in range(2):
                got = model._admissible_mask(now, config, confidence=confidence)
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()
