"""Whole-pair fan-out of a run series: :func:`compare_series_parallel`.

The paper computes κ for an environment over a series — a baseline run A
plus repeat runs, each compared to A — so a series is a set of
independent (baseline, run) pairs and the pair is the natural unit of
parallel work.  Each pool task runs the unmodified serial
:func:`repro.core.report.compare_trials` on one pair whose packet arrays
it reads from shared memory (:mod:`repro.parallel.shm`), and
:func:`~repro.parallel.pool.gather` returns the reports in submission
order.  The output is therefore exactly equal — every float bit — to
:func:`repro.core.report.compare_series`: it *is* the serial code.

A series with a single pair, or ``jobs=1``, runs the serial driver
in-process and never touches the pool.  Splitting one pair across
workers lost to serial on a 2-core host (see ``docs/parallel.md`` for
the measurements), so the pair is never divided.
"""

from __future__ import annotations

from ..core.histograms import SymlogBins
from ..core.report import (
    RunSeriesReport,
    compare_series,
    compare_trials,
    label_series,
)
from ..core.trial import Trial
from ..obs import metrics
from .pool import default_jobs, gather, get_pool, submit_task
from .shm import ShmArena, attach_view, detach_all

__all__ = ["compare_series_parallel"]


def _whole_pair_worker(task: dict):
    """Run the unmodified serial comparison on one (baseline, run) pair."""
    attachments: dict = {}
    try:
        baseline = Trial(
            attach_view(task["tags_a"], attachments),
            attach_view(task["times_a"], attachments),
            label=task["label_a"],
            meta=task["meta_a"],
        )
        run = Trial(
            attach_view(task["tags_b"], attachments),
            attach_view(task["times_b"], attachments),
            label=task["label_b"],
            meta=task["meta_b"],
        )
        return compare_trials(baseline, run, bins=task["bins"])
    finally:
        detach_all(attachments)


def compare_series_parallel(
    trials: list[Trial],
    environment: str = "",
    bins: SymlogBins | None = None,
    *,
    jobs: int | None = None,
) -> RunSeriesReport:
    """Drop-in for :func:`repro.core.report.compare_series` with fan-out.

    Runs one pool task per (baseline, run) pair when ``jobs > 1`` and the
    series has at least two pairs; otherwise runs the serial driver.
    Exactly equal output (every float bit) at any ``jobs``; ``jobs=None``
    honors ``REPRO_JOBS`` and defaults to serial.
    """
    jobs = default_jobs() if jobs is None else int(jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1 or len(trials) <= 2:
        return compare_series(trials, environment=environment, bins=bins)

    bins = bins if bins is not None else SymlogBins()
    baseline, runs = label_series(trials)
    metrics.counter("engine.whole_pair_tasks").add(len(runs))
    pool = get_pool(jobs)
    with ShmArena() as arena:
        tags_a = arena.share(baseline.tags)
        times_a = arena.share(baseline.times_ns)
        futures = []
        for run in runs:
            task = {
                "tags_a": tags_a,
                "times_a": times_a,
                "tags_b": arena.share(run.tags),
                "times_b": arena.share(run.times_ns),
                "label_a": baseline.label,
                "label_b": run.label,
                "meta_a": dict(baseline.meta),
                "meta_b": dict(run.meta),
                "bins": bins,
            }
            futures.append(
                submit_task(
                    pool, _whole_pair_worker, task,
                    name="analysis.pair.whole", run=run.label,
                )
            )
        pairs = gather(futures)
    return RunSeriesReport(
        environment=environment,
        baseline_label=baseline.label,
        pairs=tuple(pairs),
    )
