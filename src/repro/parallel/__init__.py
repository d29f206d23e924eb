"""Process-pool fan-out of whole units of work, bit-identical to serial.

The paper computes κ for an environment over a series — a baseline run
plus repeat runs, each compared to the baseline — and its artifact notes
analysis time "scales with the length of the packet captures".  This
package fans that work out across cores in one shape only: **whole
units**, never pieces of one.

* :func:`~repro.parallel.engine.compare_series_parallel` — one pool task
  per (baseline, run) pair, each running the serial
  :func:`repro.core.report.compare_trials`; a single pair or ``jobs=1``
  runs serially in-process.
* whole simulated series — one pool task per series missing from the
  cache (:func:`repro.experiments.runner.run_scenarios`) or per sweep
  unit (:func:`repro.sweep.run_sweep`); a series is never split into
  its runs.
* :mod:`~repro.parallel.pool` — the persistent, process-global worker
  pool every fan-out draws from (one pool per ``repro`` invocation).
* :mod:`~repro.parallel.shm` — ``multiprocessing.shared_memory``
  transport of the packet arrays; workers never pickle payloads.

See ``docs/parallel.md`` for the measurements behind the one shape, and
``tests/test_parallel_differential.py`` / ``tests/test_sim_differential.py``
for the differential harnesses that prove parallel == serial.
"""

from .engine import compare_series_parallel
from .pool import (
    PoolStats,
    default_jobs,
    gather,
    get_pool,
    pool_scope,
    pool_stats,
    shutdown_pool,
)
from .shm import ArraySpec, ShmArena

__all__ = [
    "compare_series_parallel",
    "get_pool",
    "shutdown_pool",
    "pool_stats",
    "pool_scope",
    "gather",
    "PoolStats",
    "ArraySpec",
    "ShmArena",
    "default_jobs",
]
