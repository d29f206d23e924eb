"""Unit tests for repro.core.matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Trial, match_trials, occurrence_ranks
from repro.core.matching import match_tag_arrays
from repro.net import make_tags
from repro.obs import metrics

from .conftest import comb_trial, make_trial


class TestOccurrenceRanks:
    def test_doc_example(self):
        np.testing.assert_array_equal(
            occurrence_ranks(np.array([7, 3, 7, 7, 3])), [0, 0, 1, 2, 1]
        )

    def test_all_unique(self):
        np.testing.assert_array_equal(occurrence_ranks(np.arange(5)), np.zeros(5))

    def test_all_equal(self):
        np.testing.assert_array_equal(
            occurrence_ranks(np.zeros(4, dtype=np.int64)), [0, 1, 2, 3]
        )

    def test_empty(self):
        assert occurrence_ranks(np.array([], dtype=np.int64)).shape == (0,)

    def test_preserves_input_order_within_groups(self, rng):
        tags = rng.integers(0, 10, 200)
        ranks = occurrence_ranks(tags)
        for v in np.unique(tags):
            # Ranks of a value's occurrences must be 0..k-1 in input order.
            np.testing.assert_array_equal(
                ranks[tags == v], np.arange(np.count_nonzero(tags == v))
            )


class TestMatchTrials:
    def test_identical(self):
        a = comb_trial(10, label="A")
        m = match_trials(a, a)
        assert m.is_permutation
        assert m.n_common == 10
        np.testing.assert_array_equal(m.idx_a, m.idx_b)

    def test_empty_sides(self):
        a, e = comb_trial(3), make_trial([])
        assert match_trials(a, e).n_common == 0
        assert match_trials(e, a).n_common == 0
        assert match_trials(e, e).n_common == 0

    def test_disjoint(self):
        a = make_trial([0.0, 1.0], tags=[1, 2])
        b = make_trial([0.0, 1.0], tags=[3, 4])
        m = match_trials(a, b)
        assert m.n_common == 0
        assert not m.is_permutation

    def test_partial_overlap_alignment(self):
        a = make_trial([0, 1, 2, 3], tags=[10, 11, 12, 13])
        b = make_trial([0, 1, 2], tags=[12, 10, 99])
        m = match_trials(a, b)
        assert m.n_common == 2
        # Rows are in A order: tag 10 (a idx 0, b idx 1), tag 12 (a 2, b 0).
        np.testing.assert_array_equal(m.idx_a, [0, 2])
        np.testing.assert_array_equal(m.idx_b, [1, 0])

    def test_duplicate_tags_match_by_occurrence(self):
        # A has tag 5 twice; B has it three times: two match, one is extra.
        a = make_trial([0, 1, 2], tags=[5, 5, 7])
        b = make_trial([0, 1, 2, 3], tags=[5, 8, 5, 5])
        m = match_trials(a, b)
        assert m.n_common == 2  # the two 5s; 7 and 8 and the third 5 don't
        np.testing.assert_array_equal(m.idx_a, [0, 1])
        np.testing.assert_array_equal(m.idx_b, [0, 2])

    def test_a_ranks_in_b_order_is_permutation(self, rng):
        perm = rng.permutation(50)
        a = comb_trial(50)
        b = make_trial(np.arange(50) * 10.0, tags=perm)
        m = match_trials(a, b)
        seq = m.a_ranks_in_b_order()
        assert sorted(seq.tolist()) == list(range(50))

    def test_a_ranks_reversed(self):
        a = make_trial([0, 1, 2], tags=[1, 2, 3])
        b = make_trial([0, 1, 2], tags=[3, 2, 1])
        m = match_trials(a, b)
        np.testing.assert_array_equal(m.a_ranks_in_b_order(), [2, 1, 0])

    def test_b_order(self):
        a = make_trial([0, 1, 2], tags=[1, 2, 3])
        b = make_trial([0, 1, 2], tags=[3, 1, 2])
        ia, ib = match_trials(a, b).b_order()
        np.testing.assert_array_equal(ib, [0, 1, 2])
        np.testing.assert_array_equal(ia, [2, 0, 1])

    def test_negative_tags_supported(self):
        a = make_trial([0, 1], tags=[-5, -1])
        b = make_trial([0, 1], tags=[-1, -5])
        assert match_trials(a, b).n_common == 2


class TestArgsortCache:
    """The B-order argsort is computed once per matching, then memoized.

    ``b_order``, ``a_ranks_in_b_order`` and the engine's ordering
    permutation all need the stable argsort of ``idx_b``; the
    ``match.b_order_argsorts`` counter proves every path shares one
    compute per pair.
    """

    def _argsorts(self) -> int:
        from repro.obs import metrics

        return metrics.counter("match.b_order_argsorts").value

    def test_one_argsort_across_accessors(self, rng):
        perm = rng.permutation(500)
        a = comb_trial(500)
        b = make_trial(np.arange(500) * 10.0, tags=perm)
        m = match_trials(a, b)
        before = self._argsorts()
        m.b_order()
        m.a_ranks_in_b_order()
        m.b_order()
        m.a_ranks_in_b_order()
        assert self._argsorts() - before == 1

    def test_cache_preserves_values(self, rng):
        perm = rng.permutation(64)
        a = comb_trial(64)
        b = make_trial(np.arange(64) * 10.0, tags=perm)
        m = match_trials(a, b)
        first = m.a_ranks_in_b_order()
        ia1, ib1 = m.b_order()
        again = m.a_ranks_in_b_order()
        ia2, ib2 = m.b_order()
        np.testing.assert_array_equal(first, again)
        np.testing.assert_array_equal(ia1, ia2)
        np.testing.assert_array_equal(ib1, ib2)
        # The cached permutation is the argsort the accessors are defined by.
        np.testing.assert_array_equal(
            first, np.argsort(m.idx_b, kind="stable").astype(np.int64)
        )

    def test_full_comparison_is_one_argsort_per_pair(self):
        from repro.core import compare_trials

        rng2 = np.random.default_rng(4242)
        tags = rng2.integers(0, 40, size=300).astype(np.int64)
        times = np.cumsum(rng2.exponential(100.0, size=300))
        a = make_trial(times, tags, label="A")
        run_times = times + rng2.normal(0, 150, 300)
        order = np.argsort(run_times, kind="stable")
        b = make_trial(run_times[order], tags[order], label="B")
        before = self._argsorts()
        compare_trials(a, b)
        assert self._argsorts() - before == 1


def naive_match(tags_a, tags_b):
    """The Section-3 ``(tag, occurrence)`` matching by dictionary lookup."""
    where_b, seen_b = {}, {}
    for j, tag in enumerate(tags_b.tolist()):
        occ = seen_b.get(tag, 0)
        seen_b[tag] = occ + 1
        where_b[(tag, occ)] = j
    ia, ib, seen_a = [], [], {}
    for i, tag in enumerate(tags_a.tolist()):
        occ = seen_a.get(tag, 0)
        seen_a[tag] = occ + 1
        if (tag, occ) in where_b:
            ia.append(i)
            ib.append(where_b[(tag, occ)])
    return np.array(ia, dtype=np.intp), np.array(ib, dtype=np.intp)


def _through_grouped_path(tags_a, tags_b):
    """``match_tag_arrays`` forced onto the grouped (duplicate-tag) path.

    Appending two copies of a tag absent from B gives A a duplicate
    without changing which rows match or where.
    """
    absent = np.int64(max(tags_a.max(initial=0), tags_b.max(initial=0)) + 1)
    return match_tag_arrays(np.append(tags_a, [absent, absent]), tags_b)


def _unique_pairs() -> int:
    return metrics.counter("match.unique_pairs").value


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.intp
        np.testing.assert_array_equal(g, w)


unique_tags = st.lists(st.integers(-50, 50), unique=True, max_size=40).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


class TestUniqueTagPath:
    """Unique tags on both sides take the plain-intersection path."""

    @given(unique_tags, unique_tags)
    @settings(max_examples=200, deadline=None)
    def test_unique_path_equals_grouped_path(self, tags_a, tags_b):
        before = _unique_pairs()
        fast = match_tag_arrays(tags_a, tags_b)
        took_fast = _unique_pairs() - before
        assert took_fast == (tags_a.size > 0 and tags_b.size > 0)
        slow = _through_grouped_path(tags_a, tags_b)
        assert _unique_pairs() - before == took_fast
        _assert_same(fast, slow)
        _assert_same(fast, naive_match(tags_a, tags_b))

    @given(unique_tags, st.lists(st.integers(-50, 50), max_size=40), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_one_side_unique(self, unique, repeated, swap):
        repeated = np.array(repeated + repeated[:3], dtype=np.int64)
        tags_a, tags_b = (repeated, unique) if swap else (unique, repeated)
        before = _unique_pairs()
        got = match_tag_arrays(tags_a, tags_b)
        if np.unique(repeated).size < repeated.size:
            assert _unique_pairs() == before
        _assert_same(got, naive_match(tags_a, tags_b))

    @given(unique_tags, st.data())
    @settings(max_examples=100, deadline=None)
    def test_subset_and_permutation(self, tags, data):
        perm = np.array(data.draw(st.permutations(tags.tolist())), dtype=np.int64)
        keep = data.draw(st.lists(st.booleans(), min_size=tags.size, max_size=tags.size))
        subset = perm[np.array(keep, dtype=bool)] if tags.size else perm
        for a, b in ((tags, perm), (tags, subset), (subset, tags)):
            _assert_same(match_tag_arrays(a, b), naive_match(a, b))
            _assert_same(match_tag_arrays(a, b), _through_grouped_path(a, b))

    def test_disjoint_and_empty(self):
        a = np.arange(5, dtype=np.int64)
        for b in (np.arange(10, 15, dtype=np.int64), np.empty(0, dtype=np.int64)):
            for x, y in ((a, b), (b, a)):
                ia, ib = match_tag_arrays(x, y)
                assert ia.size == ib.size == 0
                assert ia.dtype == ib.dtype == np.intp

    def test_duplicate_pair_adds_no_unique_count(self):
        a = make_trial([0, 1, 2], tags=[5, 5, 7])
        b = make_trial([0, 1, 2, 3], tags=[5, 8, 5, 5])
        before = _unique_pairs()
        match_trials(a, b)
        assert _unique_pairs() == before

    def test_table2_shaped_pair_adds_one(self):
        # Replayer tags (make_tags) of a dual-replayer capture: a sorted
        # baseline, and a run with a few neighbours swapped and drops.
        rng = np.random.default_rng(7)
        base = np.sort(np.concatenate([make_tags(5000), make_tags(5000, replayer_id=1)]))
        run = base.copy()
        swap = 2 * rng.choice(run.size // 2, 200, replace=False)
        run[swap], run[swap + 1] = run[swap + 1], run[swap]
        run = np.delete(run, rng.choice(run.size, 30, replace=False))
        before = _unique_pairs()
        got = match_tag_arrays(base, run)
        assert _unique_pairs() - before == 1
        _assert_same(got, _through_grouped_path(base, run))
        before = _unique_pairs()
        ia, ib = match_tag_arrays(base, base)
        assert _unique_pairs() - before == 1
        np.testing.assert_array_equal(ia, np.arange(base.size))
        np.testing.assert_array_equal(ib, np.arange(base.size))
