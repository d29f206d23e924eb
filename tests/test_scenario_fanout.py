"""Whole-series simulation fan-out of the scenario drivers.

``table2`` and ``validate_against_paper`` go through
:func:`repro.experiments.runner.run_scenarios`: at ``jobs >= 2`` the
series missing from the cache and the store are simulated as one pool
task per series, then analysed as ``run_scenario`` does.  These tests
pin what that must not change:

* the rows and verdicts are equal at ``jobs=1`` and ``jobs=2``;
* a series already in the store is never re-simulated;
* each environment is simulated once per process, however many drivers
  (a table, then a figure) ask for it.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import ALL_FIGURES, SCENARIOS, runner, table2
from repro.experiments.runner import configure_store, run_scenarios
from repro.experiments.validation import validate_against_paper
from repro.obs import metrics, trace
from repro.parallel import shutdown_pool

SCALE = 0.02
#: ``validate_against_paper`` refuses scales below 0.05.
VALIDATE_SCALE = 0.05


@pytest.fixture(autouse=True)
def cold_runner(monkeypatch):
    """Each test starts with an empty series cache, no store, no pool."""
    monkeypatch.setattr(runner, "_series_cache", {})
    monkeypatch.setattr(runner, "_store", None)
    trace.reset()
    yield
    shutdown_pool()
    trace.reset()


def _counter(name: str) -> int:
    return metrics.REGISTRY.snapshot()["counters"].get(name, 0)


def _scenario_spans():
    return [s for s in trace.records() if s.name == "experiment.scenario"]


class TestJobsInvariance:
    def test_table2_rows_equal_across_jobs(self):
        trace.enable()
        parallel = table2(duration_scale=SCALE, jobs=2)
        # Every environment was simulated in a worker, one task per series.
        spans = _scenario_spans()
        assert sorted(s.attrs["key"] for s in spans) == sorted(
            sc.key for sc in SCENARIOS
        )
        assert os.getpid() not in {s.pid for s in spans}
        trace.reset()
        runner._series_cache.clear()
        serial = table2(duration_scale=SCALE, jobs=1)
        assert parallel == serial

    def test_validation_equal_across_jobs(self):
        parallel = validate_against_paper(
            duration_scale=VALIDATE_SCALE, n_runs=3, jobs=2
        )
        runner._series_cache.clear()
        serial = validate_against_paper(
            duration_scale=VALIDATE_SCALE, n_runs=3, jobs=1
        )
        assert parallel == serial
        assert parallel.render() == serial.render()

    def test_single_miss_simulates_in_process(self):
        """One missing series has nothing to fan out."""
        trace.enable()
        run_scenarios(["local-single"], duration_scale=SCALE, n_runs=2, jobs=2)
        (span,) = _scenario_spans()
        assert span.pid == os.getpid()


class TestNoResimulation:
    def test_stored_series_submit_no_simulation_task(self, tmp_path):
        configure_store(str(tmp_path / "store"))
        serial = table2(duration_scale=SCALE, jobs=1)
        runner._series_cache.clear()  # a fresh process, same store

        hits = _counter("runner.store_hits")
        trace.enable()
        parallel = table2(duration_scale=SCALE, jobs=2)
        assert _scenario_spans() == []
        assert _counter("runner.store_hits") == hits + len(SCENARIOS)
        # The analysis still fanned out: the store only skips simulation.
        assert any(s.name == "analysis.pair.whole" for s in trace.records())
        assert parallel == serial

    def test_table_then_figure_simulates_each_environment_once(self):
        misses = _counter("runner.cache_misses")
        table2(duration_scale=SCALE, jobs=2)
        ALL_FIGURES["4a"](duration_scale=SCALE, jobs=2)
        ALL_FIGURES["9a"](duration_scale=SCALE, jobs=2)
        assert _counter("runner.cache_misses") == misses + len(SCENARIOS)
