"""Process-parallel experiment execution: determinism and failure surfacing.

The contract under test (docs/PERFORMANCE.md): ``run_fleet(workers=N)`` is
byte-identical to ``run_fleet(workers=0)`` — same result rows, same
manifests, and, under an active observation session, the same trace,
metrics and series exports.  Failures in a worker must come back as
:class:`ParallelExecutionError` naming the rebuildable scenario spec.
"""

import pytest

from repro import obs
from repro.experiments.runner import run_fleet
from repro.experiments.scenarios import fig5_scenarios, smoke_scenario
from repro.parallel import ParallelExecutionError

#: More jobs than workers, so the pool must queue and still preserve order.
SEEDS = (123, 321, 555)
WORKERS = 2


def smoke_fleet():
    return [smoke_scenario(seed=seed) for seed in SEEDS]


def observed_fleet(workers: int):
    with obs.observed() as rec:
        result = run_fleet(smoke_fleet(), workers=workers)
    return result, rec.sink.to_jsonl(), rec.metrics.to_json(), rec.series.to_json()


class TestParallelDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self):
        serial = observed_fleet(workers=0)
        parallel = observed_fleet(workers=WORKERS)
        # Result rows (dashboards, decision counts, manifests) are equal...
        assert parallel[0] == serial[0]
        # ...and so are all three observability exports, byte for byte.
        assert parallel[1] == serial[1]
        assert parallel[2] == serial[2]
        assert parallel[3] == serial[3]

    def test_parallel_without_observation(self):
        serial = run_fleet(smoke_fleet(), workers=0)
        parallel = run_fleet(smoke_fleet(), workers=WORKERS)
        assert parallel == serial
        assert [r.scenario for r in parallel.rows] == ["smoke"] * len(SEEDS)
        assert [r.manifest.seed for r in parallel.rows] == list(SEEDS)
        assert not obs.enabled()


class TestWorkerFailure:
    def test_worker_exception_names_the_scenario_spec(self):
        # fig5 scenarios have no keebo_day, so the §7.1 protocol raises.
        with pytest.raises(ParallelExecutionError, match=r"fig5\(seed=\d+\)\[0\]"):
            run_fleet([fig5_scenarios()[0]], workers=1)

    def test_unshippable_scenario_is_rejected(self):
        scenario = smoke_scenario()
        scenario.spec = None  # as if hand-built, with no registered recipe
        with pytest.raises(ParallelExecutionError, match="no ScenarioSpec"):
            run_fleet([scenario], workers=1)

    def test_serial_path_raises_the_original_error(self):
        with pytest.raises(ValueError, match="keebo_day"):
            run_fleet([fig5_scenarios()[0]], workers=0)

    def test_parent_session_survives_serial_failure(self):
        with obs.observed() as rec:
            with pytest.raises(ValueError, match="keebo_day"):
                run_fleet([fig5_scenarios()[0]], workers=0)
            assert obs.recorder() is rec

    def test_failure_leaves_exactly_the_jobs_before_it(self):
        """A failing job leaves the parent session holding exactly the jobs
        submitted before it, whatever ``workers`` is."""

        def exports(rec):
            return rec.sink.to_jsonl(), rec.metrics.to_json(), rec.series.to_json()

        with obs.observed() as rec:
            run_fleet([smoke_scenario()], workers=0)
        alone = exports(rec)
        left_behind = {}
        for workers, error in ((0, ValueError), (1, ParallelExecutionError)):
            with obs.observed() as rec:
                with pytest.raises(error, match="keebo_day"):
                    run_fleet([smoke_scenario(), fig5_scenarios()[0]], workers=workers)
            left_behind[workers] = exports(rec)
        assert left_behind[0] == left_behind[1] == alone
