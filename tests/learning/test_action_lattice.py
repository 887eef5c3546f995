"""Deterministic work counters for the cached action lattice.

These count calls, not seconds, so they hold on any host: a cached row
makes masking free of ``apply`` calls, and each new row costs exactly one
uncached apply per action.
"""

import pytest

from repro.common.simtime import DAY, HOUR
from repro.core.constraints import ConstraintRule, ConstraintSet
from repro.core.sliders import SliderPosition, slider_params
from repro.core.smart_model import SmartModel
from repro.learning.actions import ActionSpace
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import WarehouseSize


class Counts:
    def __init__(self):
        self.apply = 0
        self.uncached = 0


@pytest.fixture
def counts(monkeypatch):
    """Count public ``apply`` and uncached row-building calls."""
    counts = Counts()
    apply, uncached = ActionSpace.apply, ActionSpace._apply_uncached

    def counting_apply(self, config, action):
        counts.apply += 1
        return apply(self, config, action)

    def counting_uncached(self, config, action):
        counts.uncached += 1
        return uncached(self, config, action)

    monkeypatch.setattr(ActionSpace, "apply", counting_apply)
    monkeypatch.setattr(ActionSpace, "_apply_uncached", counting_uncached)
    return counts


def original() -> WarehouseConfig:
    return WarehouseConfig(
        size=WarehouseSize.L, auto_suspend_seconds=600.0, min_clusters=1, max_clusters=3
    )


def mask_model(rules=()) -> SmartModel:
    space = ActionSpace(original())
    return SmartModel(
        client=None,
        warehouse="WH",
        agent=None,
        action_space=space,
        features=None,
        cost_model=None,
        constraints=ConstraintSet(list(rules)),
        params=slider_params(SliderPosition.BALANCED),
    )


def reachable(space: ActionSpace) -> set[WarehouseConfig]:
    """Every config reachable from the original by repeated actions."""
    seen = {space.original}
    frontier = [space.original]
    while frontier:
        config = frontier.pop()
        for target in space.resulting_configs(config):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


class TestLatticeCounters:
    def test_new_row_costs_one_uncached_apply_per_action(self, counts):
        model = mask_model()
        model._admissible_mask(12 * HOUR, original(), confidence=1.0)
        assert counts.uncached == len(model.action_space) == 36
        assert counts.apply == 0

    def test_cached_row_masks_without_apply(self, counts):
        model = mask_model()
        model._admissible_mask(12 * HOUR, original(), confidence=1.0)
        built = counts.uncached
        for confidence in (0.0, 0.5, 1.0):
            model._admissible_mask(12 * HOUR, original(), confidence=confidence)
        assert counts.uncached == built
        assert counts.apply == 0

    def test_constraint_mask_reuses_the_row(self, counts):
        rule = ConstraintRule("no-downsize", allow_downsize=False)
        model = mask_model([rule])
        for t in (12 * HOUR, 2 * DAY, 3 * DAY):
            model._admissible_mask(t, original(), confidence=1.0)
        assert counts.uncached == 36
        assert counts.apply == 0

    def test_apply_reads_the_row(self, counts):
        space = ActionSpace(original())
        for action in space.actions:
            space.apply(original(), action)
        assert counts.apply == 36
        assert counts.uncached == 36

    def test_lattice_builds_each_reachable_row_once(self, counts):
        space = ActionSpace(original())
        configs = reachable(space)
        assert counts.uncached == 36 * len(configs)
        # A second walk over the whole lattice is all cache hits.
        assert reachable(space) == configs
        assert counts.uncached == 36 * len(configs)

    def test_rows_share_one_object_per_config(self):
        space = ActionSpace(original())
        configs = reachable(space)
        objects = {id(c) for config in configs for c in space.row(config).configs}
        assert len(objects) == len(configs)
