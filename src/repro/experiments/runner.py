"""Experiment execution: run scenarios, cache series reports per process.

Several figures and both tables draw on the same underlying trial series
(e.g. Table 2 needs all nine environments; Figures 4a and 4b share the
local-single series).  ``run_scenario`` memoizes by (scenario, scale,
n_runs, seed) so a full benchmark session simulates each environment once.

Fan-out: the unit of simulation fan-out is a whole series.
``run_scenarios(keys, jobs=N)`` (or ``REPRO_JOBS=N``) simulates the
series missing from the cache as one pool task per series, then analyses
each scenario with ``run_scenario``, whose ``jobs`` fans the comparison
out through :func:`repro.parallel.compare_series_parallel` (one task per
baseline/run pair).  Each task runs the serial code on its whole unit,
so figure and table reproductions are byte-stable under any job count.
The series cache is therefore keyed *without* the job count: trials
simulated in a worker or in-process are interchangeable bit-for-bit.

Persistence: the in-process cache dies with the process; ``--store DIR``
(or ``REPRO_STORE=DIR``, or :func:`configure_store`) backs it with the
content-addressed artifact store of :mod:`repro.sweep.store`, so a
Table-2 / figure / validation driver reuses any series ever simulated
for the same content digest — including entries written by ``repro
sweep`` — and feeds its own misses back in.  The digest is jobs-free and
start-method-free, like the in-process key.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from ..core.report import RunSeriesReport
from ..core.trial import Trial
from ..obs import metrics
from ..obs.trace import span
from ..testbeds import EnvironmentProfile, Testbed
from .scenarios import scenario

__all__ = [
    "run_trials",
    "run_scenario",
    "run_scenarios",
    "run_scenario_trials",
    "analyze_trials",
    "configure_store",
    "persistent_store",
]


def analyze_trials(
    trials: list[Trial], environment: str = "", jobs: int | None = None
) -> RunSeriesReport:
    """Compare a trial series, fanning its pairs across ``jobs`` processes.

    ``jobs=None`` honors ``REPRO_JOBS`` (default 1 — the serial path);
    any value produces the identical report.
    """
    from ..parallel import compare_series_parallel, default_jobs

    jobs = default_jobs() if jobs is None else int(jobs)
    with span(
        "experiment.analyze",
        environment=environment,
        n_trials=len(trials),
        jobs=jobs,
    ):
        return compare_series_parallel(trials, environment=environment, jobs=jobs)


def run_trials(
    profile: EnvironmentProfile, n_runs: int = 5, seed: int = 0
) -> list[Trial]:
    """Run a trial series on an ad-hoc profile (the quickstart entry point)."""
    return Testbed(profile, seed=seed).run_series(n_runs)


#: Memoized series per (scenario, scale, n_runs, seed).  A plain dict, not
#: ``lru_cache``: the job count must NOT be part of the key (output is
#: jobs-invariant, and a jobs-keyed cache would re-simulate — and break the
#: identity guarantee tests rely on — when a caller switches job counts).
_series_cache: dict = {}
_SERIES_CACHE_MAX = 32

#: The persistent artifact store behind the in-process cache:
#: ``configure_store`` (or ``--store`` / ``REPRO_STORE``) makes scenario
#: series durable across invocations.  ``False`` = not yet resolved.
_store = False


def configure_store(store) -> None:
    """Install the persistent series store used on in-process cache misses.

    ``store`` is an :class:`repro.sweep.ArtifactStore`, a directory path
    to create one over, or ``None`` to disable persistence (which also
    stops ``REPRO_STORE`` from being consulted this process).  The store
    is keyed by content digest — scenario profile × seed scheme × series
    length — never by job count or pool start method, so any invocation
    shape shares entries (see :mod:`repro.sweep.store`).
    """
    global _store
    if store is None or hasattr(store, "get"):
        _store = store
    else:
        from ..sweep.store import ArtifactStore

        _store = ArtifactStore(store)


def _persistent_store():
    """The configured store, resolving ``REPRO_STORE`` lazily once."""
    global _store
    if _store is False:
        path = os.environ.get("REPRO_STORE")
        configure_store(path if path else None)
    return _store


def persistent_store():
    """The live persistent series store, or ``None``.

    The public face of the ``--store`` / ``REPRO_STORE`` resolution: other
    drivers that fan work out through the sweep coordinator (e.g. the
    stability screen behind ``table2(ci=True)``) call this so their units
    land in — and are satisfied from — the same store as the scenario
    runner's.
    """
    return _persistent_store()


class _Miss(NamedTuple):
    """A scenario series found in neither the in-process cache nor the store."""

    cache_key: tuple
    key: str
    profile: EnvironmentProfile
    seed: int
    n_runs: int
    digest: str | None


def _remember(cache_key: tuple, result: tuple) -> tuple:
    if len(_series_cache) >= _SERIES_CACHE_MAX:
        _series_cache.pop(next(iter(_series_cache)))
    _series_cache[cache_key] = result
    return result


def _lookup_series(
    key: str, duration_scale: float, n_runs: int, seed_override: int | None
) -> tuple[tuple | None, _Miss | None]:
    """``(result, None)`` on a cache or store hit, else ``(None, miss)``."""
    cache_key = (key, duration_scale, n_runs, seed_override)
    hit = _series_cache.get(cache_key)
    if hit is not None:
        metrics.counter("runner.cache_hits").add()
        return hit, None
    metrics.counter("runner.cache_misses").add()
    sc = scenario(key)
    profile = sc.profile(duration_scale)
    seed = sc.seed if seed_override is None else seed_override

    store = _persistent_store()
    digest = None
    if store is not None:
        from ..sweep.store import compute_digest

        digest = compute_digest(profile, seed, n_runs)
        entry = store.get(digest)
        if entry is not None:
            metrics.counter("runner.store_hits").add()
            return _remember(cache_key, (entry.trials, profile.name)), None
        metrics.counter("runner.store_misses").add()
    return None, _Miss(cache_key, key, profile, seed, n_runs, digest)


def _publish_series(miss: _Miss, trials) -> tuple[tuple[Trial, ...], str]:
    """Cache a freshly simulated series and write it through to the store."""
    result = (tuple(trials), miss.profile.name)
    if miss.digest is not None:
        from ..sweep.store import digest_key_doc

        _persistent_store().put(
            miss.digest,
            result[0],
            key=digest_key_doc(miss.profile, miss.seed, miss.n_runs),
        )
    return _remember(miss.cache_key, result)


def _simulate_series(task: tuple) -> tuple[Trial, ...]:
    """One whole series, simulated serially: the simulation fan-out unit.

    The body of every scenario simulation, in-process on a cache miss
    and as one pool task per series in :func:`run_scenarios`, so a
    series is bit-identical wherever it runs.
    """
    profile, seed, n_runs = task
    return tuple(Testbed(profile, seed=seed).run_series(n_runs))


def _simulate_miss(miss: _Miss) -> tuple[tuple[Trial, ...], str]:
    """Simulate one missing series in-process and publish it."""
    with span(
        "experiment.scenario", key=miss.key, seed=miss.seed, n_runs=miss.n_runs
    ):
        trials = _simulate_series((miss.profile, miss.seed, miss.n_runs))
    return _publish_series(miss, trials)


def _cached_series(
    key: str,
    duration_scale: float,
    n_runs: int,
    seed_override: int | None,
) -> tuple[tuple[Trial, ...], str]:
    result, miss = _lookup_series(key, duration_scale, n_runs, seed_override)
    return result if miss is None else _simulate_miss(miss)


def _simulate_missing(
    keys, duration_scale: float, n_runs: int, seed: int | None, jobs: int
) -> None:
    """Fill the series cache for ``keys``, one pool task per missing series.

    Series already in the cache or the store are never re-simulated.  A
    single miss has nothing to fan out and is simulated in-process.
    """
    misses = []
    for key in keys:
        _, miss = _lookup_series(key, duration_scale, n_runs, seed)
        if miss is not None:
            misses.append(miss)
    if len(misses) < 2:
        for miss in misses:
            _simulate_miss(miss)
        return
    from ..parallel.pool import gather, get_pool, submit_task

    pool = get_pool(jobs)
    futures = [
        submit_task(
            pool,
            _simulate_series,
            (miss.profile, miss.seed, miss.n_runs),
            name="experiment.scenario",
            key=miss.key,
            seed=miss.seed,
            n_runs=miss.n_runs,
        )
        for miss in misses
    ]
    for miss, trials in zip(misses, gather(futures)):
        _publish_series(miss, trials)


def run_scenario_trials(
    key: str,
    *,
    duration_scale: float | None = None,
    n_runs: int = 5,
    seed: int | None = None,
) -> list[Trial]:
    """The raw trials of a registered scenario (memoized per process)."""
    sc = scenario(key)  # validate the key before touching the cache
    scale = duration_scale if duration_scale is not None else _default_scale()
    trials, _ = _cached_series(sc.key, scale, n_runs, seed)
    return list(trials)


def run_scenario(
    key: str,
    *,
    duration_scale: float | None = None,
    n_runs: int = 5,
    seed: int | None = None,
    jobs: int | None = None,
) -> RunSeriesReport:
    """Run (or reuse) a scenario's series and return its analysis report.

    A cache miss is simulated in-process; ``jobs`` fans the Section-3
    analysis out across the shared pool, one task per (baseline, run)
    pair (default: ``REPRO_JOBS`` or serial).  The report is identical
    either way.
    """
    sc = scenario(key)
    scale = duration_scale if duration_scale is not None else _default_scale()
    trials, env_name = _cached_series(sc.key, scale, n_runs, seed)
    return analyze_trials(list(trials), environment=env_name, jobs=jobs)


def run_scenarios(
    keys,
    *,
    duration_scale: float | None = None,
    n_runs: int = 5,
    seed: int | None = None,
    jobs: int | None = None,
) -> list[RunSeriesReport]:
    """:func:`run_scenario` for each of ``keys``, reports in key order.

    At ``jobs >= 2`` the series missing from the cache and the store are
    first simulated as one pool task per whole series; each scenario is
    then analysed as :func:`run_scenario` does.  At ``jobs=1`` this is
    exactly a loop over :func:`run_scenario`.  The reports are identical
    at any ``jobs``.
    """
    from ..parallel.pool import default_jobs

    jobs = default_jobs() if jobs is None else int(jobs)
    keys = [scenario(key).key for key in keys]
    scale = duration_scale if duration_scale is not None else _default_scale()
    if jobs > 1:
        _simulate_missing(dict.fromkeys(keys), scale, n_runs, seed, jobs)
    return [
        run_scenario(
            key, duration_scale=scale, n_runs=n_runs, seed=seed, jobs=jobs
        )
        for key in keys
    ]


def _default_scale() -> float:
    from .scenarios import default_duration_scale

    return default_duration_scale()
