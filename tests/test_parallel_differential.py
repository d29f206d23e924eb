"""Differential harness: whole-pair fan-out must equal serial *exactly*.

Every assertion here is bit-for-bit — ``==`` on floats and
``np.array_equal`` on arrays, never ``approx`` — because the fan-out's
whole contract (see ``docs/parallel.md``) is that it never changes a
single bit of the Section-3 analysis.  Randomized series exercise drops,
reorders and latency noise at every job count; degenerate shapes (empty,
single-packet, fully-dropped) pin the short-circuit paths.  Every series
has at least two pairs, so a job count above 1 really fans out through
the pool; a single pair must run serially and submit nothing.

The ordering axis (``TestOrderingShardedDifferential``) runs
droppy/reordered/quiet series through the pool and the same pairs
through the streaming comparator at every chunk size, asserting full
``EditScript`` equality — not just ``O``.

``REPRO_DIFF_JOBS`` (comma-separated, e.g. ``2,4``) restricts the job
counts exercised — CI uses it to split the matrix across runners; the
randomized ordering pairs seed from ``REPRO_TEST_SEED`` (printed on
failure) so CI failures replay locally.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import SymlogBins, compare_series, compare_trials
from repro.obs import metrics
from repro.parallel import compare_series_parallel, default_jobs, pool_stats

from .conftest import comb_trial, make_trial
from .test_streaming_differential import _stream


def _job_counts() -> list[int]:
    raw = os.environ.get("REPRO_DIFF_JOBS", "1,2,4,8")
    return [int(tok) for tok in raw.split(",") if tok.strip()]


JOB_COUNTS = _job_counts()

#: Randomized series per job count; with the default four job counts the
#: suite proves exactness on 4 * 30 * 2 = 240 distinct randomized pairs.
N_RANDOM_SERIES = 30


# -- exact-equality helpers ------------------------------------------------
# PairReport and DeltaHistogram hold ndarrays, so dataclass ``==`` is not
# usable; compare field by field.  Everything stays exact: array_equal is
# elementwise ``==`` and the scalar fields are plain floats/ints/strings.

def assert_hist_equal(got, want):
    assert got.bins == want.bins
    assert got.counts.dtype == want.counts.dtype
    assert np.array_equal(got.counts, want.counts)
    assert got.n_total == want.n_total
    assert got.label == want.label


def assert_pair_equal(got, want):
    assert got.baseline_label == want.baseline_label
    assert got.run_label == want.run_label
    assert got.metrics == want.metrics  # frozen dataclass of floats: exact
    assert got.n_baseline == want.n_baseline
    assert got.n_run == want.n_run
    assert got.n_common == want.n_common
    assert got.pct_iat_within_10ns == want.pct_iat_within_10ns
    assert got.move_stats == want.move_stats
    assert_hist_equal(got.iat_hist, want.iat_hist)
    assert_hist_equal(got.latency_hist, want.latency_hist)
    assert got.meta == want.meta


def assert_series_equal(got, want):
    assert got.environment == want.environment
    assert got.baseline_label == want.baseline_label
    assert len(got.pairs) == len(want.pairs)
    for g, w in zip(got.pairs, want.pairs):
        assert_pair_equal(g, w)


def assert_fanout_exact(trials, jobs, environment="diff", bins=None):
    """``compare_series_parallel`` at ``jobs`` equals serial, bit for bit."""
    got = compare_series_parallel(trials, environment=environment, bins=bins, jobs=jobs)
    want = compare_series(trials, environment=environment, bins=bins)
    assert_series_equal(got, want)
    return got


def tasks_submitted() -> int:
    return metrics.REGISTRY.snapshot()["counters"].get("pool.tasks_submitted", 0)


# -- randomized trial-pair generator ---------------------------------------

def random_run(rng: np.random.Generator, tags: np.ndarray, times: np.ndarray):
    """A run of ``(tags, times)`` with drops, extras and latency noise.

    The run drops a random subset, gains a few packets of its own, and
    jitters every timestamp hard enough that re-sorting by time produces
    genuine reorders.
    """
    keep = rng.random(tags.shape[0]) > 0.08  # ~8% drops
    run_tags = tags[keep]
    run_times = times[keep] + rng.normal(0.0, 180.0, size=int(keep.sum()))
    n_extra = int(rng.integers(0, 4))  # packets unique to the run
    if n_extra:
        run_tags = np.concatenate(
            [run_tags, rng.integers(10_000_000, 10_000_100, size=n_extra)]
        )
        run_times = np.concatenate(
            [run_times, rng.uniform(0.0, times[-1], size=n_extra)]
        )
    order = np.argsort(run_times, kind="stable")
    return make_trial(run_times[order], run_tags[order])


def random_pair(rng: np.random.Generator, n_base: int):
    """A (baseline, run) pair with drops, reorders and latency noise.

    Tags are drawn from a small alphabet so duplicates exercise the
    occurrence-rank matching.
    """
    tags = rng.integers(0, max(2, n_base // 2), size=n_base).astype(np.int64)
    times = np.cumsum(rng.exponential(100.0, size=n_base))
    return make_trial(times, tags), random_run(rng, tags, times)


def random_series(rng: np.random.Generator, n_base: int, n_runs: int = 2):
    """A baseline plus ``n_runs`` independent noisy runs of it."""
    baseline, run = random_pair(rng, n_base)
    runs = [run] + [
        random_run(rng, baseline.tags, baseline.times_ns) for _ in range(n_runs - 1)
    ]
    return [baseline, *runs]


# -- the differential suite ------------------------------------------------

class TestRandomizedDifferential:
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_randomized_pairs_exact(self, jobs):
        """Random droppy/reordered/noisy two-pair series: fan-out == serial."""
        rng = np.random.default_rng(20250806 + jobs)
        for _ in range(N_RANDOM_SERIES):
            n = int(rng.integers(40, 400))
            assert_fanout_exact(random_series(rng, n), jobs)

    @pytest.mark.parametrize("jobs", [j for j in JOB_COUNTS if j > 1] or [2])
    def test_randomized_series_exact(self, jobs):
        """Whole-pair fan-out of independent trials equals serial."""
        rng = np.random.default_rng(77 + jobs)
        trials = [random_pair(rng, 200)[0] for _ in range(6)]
        got = compare_series_parallel(trials, environment="diff", jobs=jobs)
        want = compare_series(trials, environment="diff")
        assert_series_equal(got, want)

    def test_sharded_series_exact(self):
        """Fewer pairs than workers: a single pair at jobs > 1 runs serially,
        submits no pool task and starts no pool — and equals serial."""
        rng = np.random.default_rng(991)
        a, b = random_pair(rng, 300)
        created = pool_stats().created_total
        submitted = tasks_submitted()
        assert_fanout_exact([a, b], min(4, max(2, *JOB_COUNTS)))
        assert tasks_submitted() == submitted
        assert pool_stats().created_total == created


class TestShardSizeSweep:
    def test_every_shard_size_exact(self):
        """Every fan-out size at jobs=2 — one pair (serial), as many pairs
        as workers, more pairs than workers — reproduces serial exactly."""
        rng = np.random.default_rng(5150)
        trials = random_series(rng, 9, n_runs=5)
        for n_trials in range(2, len(trials) + 1):
            assert_fanout_exact(trials[:n_trials], 2)

    def test_custom_bins_and_within_exact(self):
        """Custom bins cross the pool intact; the ±10 ns statistic is the
        serial ``within_ns=10`` value."""
        rng = np.random.default_rng(62)
        trials = random_series(rng, 120)
        bins = SymlogBins(linthresh=5.0, max_decade=6, bins_per_decade=3)
        got = assert_fanout_exact(trials, 2, bins=bins)
        for pair, run in zip(got.pairs, trials[1:]):
            want = compare_trials(trials[0], run, bins=bins, within_ns=10.0)
            assert pair.pct_iat_within_10ns == want.pct_iat_within_10ns
            assert pair.iat_hist.bins == bins


class TestDegenerateShapes:
    CASES = {
        "both-empty": lambda: (make_trial([]), make_trial([])),
        "empty-baseline": lambda: (make_trial([]), comb_trial(5)),
        "empty-run": lambda: (comb_trial(5), make_trial([])),
        "single-packet": lambda: (make_trial([10.0]), make_trial([12.5])),
        "all-dropped": lambda: (
            make_trial([0.0, 10.0, 20.0], tags=[1, 2, 3]),
            make_trial([1.0, 11.0, 21.0], tags=[7, 8, 9]),
        ),
        "identical": lambda: (comb_trial(64), comb_trial(64)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("jobs", [1, min(2, max(JOB_COUNTS))])
    def test_degenerate_exact(self, case, jobs):
        """The degenerate pair twice in one series (two pool tasks)."""
        a, b = self.CASES[case]()
        assert_fanout_exact([a, b, b], jobs)


class TestOrderingShardedDifferential:
    """The ordering metric through the pool and through the streaming
    comparator's resumed patience loop must be bit-identical to serial on
    every pair kind × jobs × chunk size — the full
    :class:`~repro.core.ordering.EditScript`, not just ``O``."""

    @staticmethod
    def _pair(kind: str, rng: np.random.Generator, n: int):
        """Droppy / reordered / quiet pairs isolate the ordering regimes."""
        tags = rng.integers(0, max(2, n // 3), size=n).astype(np.int64)
        times = np.cumsum(rng.exponential(100.0, size=n))
        baseline = make_trial(times, tags)
        return baseline, TestOrderingShardedDifferential._run(kind, rng, tags, times)

    @staticmethod
    def _run(kind: str, rng: np.random.Generator, tags, times):
        n = tags.shape[0]
        if kind == "droppy":
            keep = rng.random(n) > 0.3
            bt, btags = times[keep], tags[keep]
        elif kind == "reordered":
            bt = times + rng.normal(0.0, 600.0, size=n)  # hard shuffles
            btags = tags
        else:  # quiet: same packets, jitter too small to reorder
            bt = times + rng.uniform(0.0, 1.0, size=n)
            btags = tags
        order = np.argsort(bt, kind="stable")
        return make_trial(bt[order], btags[order])

    def _series(self, kind: str, rng: np.random.Generator, n: int, n_runs: int = 2):
        baseline, run = self._pair(kind, rng, n)
        more = [self._run(kind, rng, baseline.tags, baseline.times_ns)
                for _ in range(n_runs - 1)]
        return [baseline, run, *more]

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    @pytest.mark.parametrize("kind", ["droppy", "reordered", "quiet"])
    def test_edit_script_fields_exact(self, kind, jobs):
        from repro.core.matching import match_trials
        from repro.core.ordering import edit_script_from_matching

        from .conftest import suite_rng

        rng = suite_rng(salt=200 + jobs)
        for _ in range(6):
            n = int(rng.integers(60, 400))
            trials = self._series(kind, rng, n)
            assert_fanout_exact(trials, jobs)
            a, b = trials[0], trials[1]
            m = match_trials(a, b)
            want = edit_script_from_matching(m)
            for chunk in (1, 23, max(1, len(b) // 2), max(1, len(b))):
                got = _stream(a, b, chunk).edit_script()
                assert np.array_equal(got.lcs_mask_b_order, want.lcs_mask_b_order)
                assert np.array_equal(got.signed_distances, want.signed_distances)
                assert np.array_equal(got.moved_distances, want.moved_distances)
                assert np.array_equal(got.deletions_b, want.deletions_b)
                assert np.array_equal(got.insertions_a, want.insertions_a)

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_engine_reports_exact_with_ordering_blocks(self, jobs):
        """Full PairReports of every ordering regime through the pool."""
        from .conftest import suite_rng

        rng = suite_rng(salt=300 + jobs)
        for kind in ("droppy", "reordered", "quiet"):
            for _ in range(4):
                n = int(rng.integers(50, 350))
                assert_fanout_exact(self._series(kind, rng, n, n_runs=3), jobs)

    def test_ordering_block_size_sweep(self):
        """Stream chunk sizes 1..n+1 on one pair all reproduce serial."""
        from .conftest import suite_rng

        rng = suite_rng(salt=400)
        a, b = self._pair("reordered", rng, 40)
        want = compare_trials(a, b).metrics
        for chunk in range(1, len(b) + 2):
            assert _stream(a, b, chunk).result() == want

    def test_series_with_ordering_blocks_exact(self):
        from .conftest import suite_rng

        rng = suite_rng(salt=500)
        trials = [self._pair("droppy", rng, 160)[0] for _ in range(3)]
        assert_fanout_exact(trials, min(2, max(JOB_COUNTS)), environment="ord")


class TestShardedMatching:
    """Matching on the fan-out and streaming paths reproduces the serial
    matcher exactly."""

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_forced_match_buckets_exact(self, jobs):
        """Tag alphabets collapsed to 2, 3 and 8 values (long duplicate
        runs for the occurrence matcher) through the pool."""
        rng = np.random.default_rng(4242 + jobs)
        for alphabet in (2, 3, 8):
            tags = rng.integers(0, alphabet, size=300).astype(np.int64)
            times = np.cumsum(rng.exponential(100.0, size=300))
            baseline = make_trial(times, tags)
            runs = [random_run(rng, tags, times) for _ in range(2)]
            assert_fanout_exact([baseline, *runs], jobs)

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_match_trials_sharded_rows_exact(self, jobs):
        """Incremental matching, chunk by chunk: same rows, same order."""
        from repro.core.matching import match_trials

        rng = np.random.default_rng(9000 + jobs)
        for _ in range(10):
            n = int(rng.integers(30, 500))
            # Negative tags exercise the signed key packing.
            tags = rng.integers(-50, max(2, n // 3), size=n).astype(np.int64)
            a = make_trial(np.cumsum(rng.exponential(90.0, n)), tags)
            keep = rng.random(n) > 0.1
            bt = np.sort(np.cumsum(rng.exponential(90.0, n))[keep])
            b = make_trial(bt, tags[keep])
            want = match_trials(a, b)
            for chunk in (1, jobs, 17, max(1, len(b))):
                got = _stream(a, b, chunk).matching()
                assert np.array_equal(got.idx_a, want.idx_a)
                assert np.array_equal(got.idx_b, want.idx_b)
                assert (got.len_a, got.len_b) == (want.len_a, want.len_b)


class TestSerialFastPath:
    def test_jobs_one_uses_serial_driver(self):
        """jobs=1 is the serial code, verbatim — no pool task."""
        a, b = comb_trial(50), comb_trial(50, start=3.0)
        submitted = tasks_submitted()
        assert_fanout_exact([a, b, b], 1)
        assert tasks_submitted() == submitted

    def test_default_jobs_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6

    def test_series_labeling_matches_serial(self):
        """Pre-labelled and unlabelled trials mix exactly as in serial."""
        rng = np.random.default_rng(13)
        trials = [random_pair(rng, 80)[0] for _ in range(4)]
        trials[2] = trials[2].relabel("custom")
        assert_fanout_exact(trials, 2, environment="lbl")

    def test_series_requires_two_trials(self):
        with pytest.raises(ValueError):
            compare_series_parallel([comb_trial(4)], jobs=2)
        with pytest.raises(ValueError):
            compare_series_parallel([comb_trial(4), comb_trial(4)], jobs=0)
