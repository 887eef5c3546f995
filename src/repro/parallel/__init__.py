"""repro.parallel — deterministic process-parallel experiment execution.

The paper's evaluation sweeps many independent warehouses (the Figure 4/5
fleet, the Figure 7 slider sweep); each is an isolated simulation, so they
parallelize embarrassingly — *if* parallelism cannot change the results.
This package provides that guarantee (docs/PERFORMANCE.md):

* scenarios cross the process boundary as picklable
  :class:`~repro.experiments.scenarios.ScenarioSpec` recipes, never as live
  objects — each worker rebuilds its scenario from the registered factory,
  and ``RngRegistry``'s name-derived streams make the rebuild exact;
* each scenario runs in an isolated observation session (in a worker *or*
  inline) that travels back one way only — as its payload chunk stream —
  and the parent folds each stream **in submission order** through
  :meth:`repro.obs.Recorder.merge_payload` as soon as its turn comes;
* the inline (``workers=0``) path runs the very same worker entrypoint
  and fold, so ``workers=N`` output is byte-identical to ``workers=0``
  by construction, not by luck — and a failing job leaves the parent
  session holding exactly the jobs submitted before it, for every
  ``workers`` value;
* with a :class:`~repro.parallel.pool.StreamConfig`, the chunks are
  spooled through disk instead of held in memory
  (:mod:`repro.obs.stream`): worker peak RSS is O(spill bound), the
  parent folds O(chunk) at a time, workers heartbeat their progress —
  and the exported bytes are *still* identical.

This is the only module allowed to touch :mod:`multiprocessing`
(lint rule R011, docs/INVARIANTS.md).
"""

from repro.parallel.pool import (
    ParallelExecutionError,
    StreamConfig,
    WorkerJob,
    register_protocol,
    resolve_protocol,
    run_jobs,
)

__all__ = [
    "ParallelExecutionError",
    "StreamConfig",
    "WorkerJob",
    "register_protocol",
    "resolve_protocol",
    "run_jobs",
]
