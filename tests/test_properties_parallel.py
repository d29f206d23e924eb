"""Property tests for the fan-out algebra of :mod:`repro.parallel`.

Seeded ``numpy`` randomness only (no hypothesis): each test draws its
cases from a fixed-seed Generator, so failures replay deterministically.
The properties pinned here are the ones whole-pair fan-out rests on: a
pair's report is independent of which task, which grouping and which
position in the series computed it (partition invariance, order
invariance, grouping associativity); the fan-out plan is one task per
pair, or none; and κ stays in [0, 1].  Plus the resumption law the
streaming comparator rests on: the patience loop fed through any split
points (one pass, one element at a time, fine or coarse blocks) lands on
the identical pile state.  Randomized suites seed from
``REPRO_TEST_SEED`` via :func:`tests.conftest.suite_rng`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import compare_trials
from repro.core.ordering import lis_indices_from_state, lis_membership, patience_fill
from repro.obs import metrics
from repro.parallel import ShmArena, compare_series_parallel
from repro.parallel.shm import attach_view, detach_all

from .conftest import make_trial, suite_rng
from .test_parallel_differential import assert_pair_equal


def noisy_series(rng: np.random.Generator, n: int, n_runs: int):
    """A baseline plus ``n_runs`` droppy, jittered runs, each labelled."""
    tags = rng.integers(0, max(2, n // 3), size=n).astype(np.int64)
    times = np.cumsum(rng.exponential(50.0, size=n))
    a = make_trial(times, tags, label="A")
    runs = []
    for k in range(n_runs):
        keep = rng.random(n) > 0.1
        bt = times[keep] + rng.normal(0.0, 120.0, size=int(keep.sum()))
        order = np.argsort(bt, kind="stable")
        runs.append(make_trial(bt[order], tags[keep][order], label=f"R{k}"))
    return a, runs


def random_partition(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Random contiguous tiling of [0, n) into 1..min(n, 6) parts."""
    k = int(rng.integers(1, min(n, 6) + 1))
    cuts = (
        np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
        if k > 1
        else np.empty(0, dtype=np.int64)
    )
    edges = [0, *cuts.tolist(), n]
    return list(zip(edges[:-1], edges[1:]))


def fanned(a, runs, jobs: int = 2):
    """Pair reports of ``runs`` against ``a`` through the fan-out."""
    return list(compare_series_parallel([a, *runs], jobs=jobs).pairs)


def assert_pairs_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_pair_equal(g, w)


def tasks_submitted() -> int:
    return metrics.REGISTRY.snapshot()["counters"].get("pool.tasks_submitted", 0)


class TestPartitionInvariance:
    def test_any_partition_merges_to_whole(self):
        """Any split of a series' runs into separately fanned-out groups
        concatenates to the whole series' reports, exactly."""
        rng = np.random.default_rng(424242)
        for _ in range(4):
            a, runs = noisy_series(rng, int(rng.integers(20, 200)), 6)
            whole = fanned(a, runs)
            for _ in range(2):
                parts = []
                for lo, hi in random_partition(rng, len(runs)):
                    parts += fanned(a, runs[lo:hi])
                assert_pairs_equal(parts, whole)

    def test_merge_is_order_invariant(self):
        """Shuffling the runs permutes the reports and changes no bit."""
        rng = np.random.default_rng(7)
        a, runs = noisy_series(rng, 150, 5)
        want = fanned(a, runs)
        for _ in range(3):
            perm = rng.permutation(len(runs))
            got = fanned(a, [runs[i] for i in perm])
            assert_pairs_equal(got, [want[i] for i in perm])


class TestCombineAlgebra:
    def _three(self, rng):
        return noisy_series(rng, 90, 3)

    def test_combine_equals_direct_computation(self):
        """Each fanned-out pair equals compare_trials run directly."""
        rng = np.random.default_rng(99)
        a, runs = self._three(rng)
        for got, run in zip(fanned(a, runs), runs):
            assert_pair_equal(got, compare_trials(a, run))

    def test_combine_associative(self):
        """((B·C)·D) and (B·(C·D)) groupings of the runs agree."""
        rng = np.random.default_rng(100)
        a, (b, c, d) = self._three(rng)
        left = fanned(a, [b, c]) + fanned(a, [d, d])[:1]
        right = fanned(a, [b, b])[:1] + fanned(a, [c, d])
        assert_pairs_equal(left, right)

    def test_combine_commutative_on_adjacent(self):
        """Swapping two adjacent runs swaps their reports, nothing else."""
        rng = np.random.default_rng(101)
        a, (b, c, _) = self._three(rng)
        bc, cb = fanned(a, [b, c]), fanned(a, [c, b])
        assert_pairs_equal(bc, cb[::-1])


class TestPrefixPatienceAssociativity:
    """The resumption law behind streaming O: running the patience loop
    (:func:`repro.core.ordering.patience_fill`) over a sequence in one
    pass, or resuming it on the live state at any split points, lands on
    the identical pile state — tails, predecessor links, and the
    walked-out mask."""

    @staticmethod
    def _fill(seq: np.ndarray, bounds) -> tuple[list, list, np.ndarray]:
        tails_vals: list = []
        tails_idx: list[int] = []
        prev = np.full(seq.shape[0], -1, dtype=np.int64)
        for lo, hi in bounds:
            patience_fill(seq[lo:hi].tolist(), tails_vals, tails_idx, prev[lo:hi], offset=lo)
        return tails_vals, tails_idx, prev

    @staticmethod
    def _states_equal(x, y):
        assert x[0] == y[0] and x[1] == y[1]
        assert np.array_equal(x[2], y[2])

    @staticmethod
    def _random_seq(rng: np.random.Generator, n: int) -> np.ndarray:
        if rng.random() < 0.5:
            return rng.permutation(n).astype(np.int64)
        # duplicate-heavy draws stress the bisect_left tie-break
        return rng.integers(0, max(2, n // 4), size=n).astype(np.int64)

    @staticmethod
    def _blocks(n: int, step: int):
        return [(lo, min(lo + step, n)) for lo in range(0, n, step)]

    def test_random_split_points_reassociate(self):
        rng = suite_rng(salt=600)
        for _ in range(30):
            n = int(rng.integers(8, 250))
            seq = self._random_seq(rng, n)
            one_pass = self._fill(seq, [(0, n)])
            resumed = self._fill(seq, random_partition(rng, n))
            self._states_equal(resumed, one_pass)
            # and the walked-out mask is the canonical serial mask
            mask = np.zeros(n, dtype=bool)
            mask[lis_indices_from_state(resumed[1], resumed[2])] = True
            assert np.array_equal(mask, lis_membership(seq))

    def test_nested_reassociations_agree(self):
        """One element at a time agrees with any coarser split."""
        rng = suite_rng(salt=601)
        for _ in range(15):
            n = int(rng.integers(12, 200))
            seq = self._random_seq(rng, n)
            want = self._fill(seq, random_partition(rng, n))
            self._states_equal(self._fill(seq, self._blocks(n, 1)), want)

    def test_block_granularity_invariance(self):
        """Resuming over fine blocks == resuming over coarse blocks."""
        rng = suite_rng(salt=602)
        for _ in range(10):
            n = int(rng.integers(20, 200))
            seq = self._random_seq(rng, n)
            self._states_equal(
                self._fill(seq, self._blocks(n, 3)), self._fill(seq, self._blocks(n, 50))
            )


class TestKappaRangeAfterMerge:
    def test_kappa_in_unit_interval_for_any_sharding(self):
        """κ and every metric component stay in [0, 1] under fan-out."""
        rng = np.random.default_rng(314159)
        for _ in range(10):
            a, runs = noisy_series(rng, int(rng.integers(10, 120)), 2)
            for rep, run in zip(fanned(a, runs), runs):
                assert 0.0 <= rep.kappa <= 1.0
                for comp in (rep.metrics.u, rep.metrics.o,
                             rep.metrics.l, rep.metrics.i):
                    assert 0.0 <= comp <= 1.0
                # and it is the same κ serial computes, exactly
                assert rep.kappa == compare_trials(a, run).kappa


class TestShardPlanner:
    """The fan-out plan: one pool task per pair, or none at all."""

    def test_plans_tile_exactly(self):
        """Every pair becomes exactly one task when the series fans out."""
        rng = np.random.default_rng(2718)
        for _ in range(6):
            jobs = int(rng.integers(1, 4))
            n_runs = int(rng.integers(1, 5))
            a, runs = noisy_series(rng, 40, n_runs)
            before = tasks_submitted()
            rep = compare_series_parallel([a, *runs], jobs=jobs)
            fans_out = jobs > 1 and n_runs >= 2
            assert tasks_submitted() - before == (n_runs if fans_out else 0)
            assert [p.run_label for p in rep.pairs] == [r.label for r in runs]

    def test_auto_sizing_respects_minimum(self):
        """Below two pairs nothing is worth a task dispatch."""
        rng = np.random.default_rng(2719)
        a, runs = noisy_series(rng, 60, 2)
        before = tasks_submitted()
        compare_series_parallel([a, runs[0]], jobs=4)
        assert tasks_submitted() == before
        compare_series_parallel([a, *runs], jobs=4)
        assert tasks_submitted() == before + 2

    def test_whole_pair_strategy_choice(self):
        rng = np.random.default_rng(2720)
        a, runs = noisy_series(rng, 60, 3)
        before = metrics.REGISTRY.snapshot()["counters"].get(
            "engine.whole_pair_tasks", 0
        )
        compare_series_parallel([a, *runs], jobs=1)  # serial: no tasks
        compare_series_parallel([a, *runs], jobs=2)  # fan-out: one per pair
        after = metrics.REGISTRY.snapshot()["counters"]["engine.whole_pair_tasks"]
        assert after == before + 3

    def test_plan_validation(self):
        a, runs = noisy_series(np.random.default_rng(2721), 10, 1)
        with pytest.raises(ValueError):
            compare_series_parallel([a, *runs], jobs=0)
        with pytest.raises(ValueError):
            compare_series_parallel([a], jobs=2)


class TestShmArena:
    def test_roundtrip_and_isolation(self):
        rng = np.random.default_rng(55)
        for dtype in (np.float64, np.int64):
            data = rng.normal(size=257).astype(dtype)
            attachments: dict = {}
            with ShmArena() as arena:
                spec = arena.share(data)
                assert spec.shm_name is not None
                view = attach_view(spec, attachments)
                assert view.dtype == data.dtype
                assert np.array_equal(view, data)
                data[0] += 1  # the segment holds a copy, not a reference
                assert view[0] != data[0]
                detach_all(attachments)
            assert attachments == {}

    def test_zero_length_is_inline(self):
        attachments: dict = {}
        with ShmArena() as arena:
            for dtype in (np.float64, np.int64):
                spec = arena.share(np.empty(0, dtype=dtype))
                assert spec.shm_name is None
                view = attach_view(spec, attachments)
                assert view.size == 0 and view.dtype == np.dtype(dtype)
        # Inline arrays never attach a segment.
        assert attachments == {}
