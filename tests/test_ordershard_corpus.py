"""Adversarial permutation corpus for the ordering metric's patience LIS.

Every case is checked three ways, all exact:

* the serial canonical mask (:func:`repro.core.ordering.lis_membership`)
  has the popcount of the textbook ``O(n·m)`` DP LCS length
  (:func:`repro.core.ordering.naive_lcs_length` against the sorted unique
  values — for strict LIS with duplicates, ``LIS(s) == LCS(unique(s), s)``);
* the mask marks a genuinely strictly-increasing subsequence;
* the sequence split into blocks — the chunks of a stream fed to
  :class:`repro.analysis.streamkappa.StreamKappa`, which resumes the same
  :func:`~repro.core.ordering.patience_fill` loop on live state — yields
  that mask element for element at every block size, including 1.

The corpus is the permutations that stress resumption at block
boundaries: blocks that land wholly on new piles (sorted), collapse onto
one pile (reversed), nest into earlier tail gaps (rotations), or straddle
earlier blocks' values (organ-pipe, interleaved runs), plus
duplicate-heavy streams that stress the ``bisect_left`` tie-break the
canonical mask is defined by.  Corpus pairs also run as a series through
the worker pool (:func:`repro.parallel.compare_series_parallel`).

A second corpus stresses the cut blocks by which
:func:`~repro.core.ordering.lis_membership` skips the patience loop (one
far-displaced element, ties at a would-be cut, runs of 2-blocks,
singletons between nested blocks), each checked against the
whole-sequence patience loop, the DP length and the
``ordering.patience_rows`` counter.

``REPRO_DIFF_JOBS`` restricts the job counts (CI splits the matrix);
``REPRO_TEST_SEED`` drives the randomized duplicate streams.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.streamkappa import StreamKappa
from repro.core import compare_series, compare_trials
from repro.core.matching import match_trials
from repro.core.ordering import (
    b_order_ranks,
    edit_script_from_matching,
    lis_indices_from_state,
    lis_membership,
    longest_increasing_subsequence,
    naive_lcs_length,
    patience_fill,
)
from repro.obs import metrics
from repro.parallel import compare_series_parallel

from .conftest import make_trial, suite_rng


def _job_counts() -> list[int]:
    raw = os.environ.get("REPRO_DIFF_JOBS", "1,2,4,8")
    return [int(tok) for tok in raw.split(",") if tok.strip()]


JOB_COUNTS = _job_counts()


def _organ_pipe(n: int) -> np.ndarray:
    up = np.arange((n + 1) // 2)
    return np.concatenate([up, up[::-1][: n - up.shape[0]]])


def _interleaved_runs(n: int) -> np.ndarray:
    """Two value-disjoint increasing runs interleaved element-wise.

    ``[0, m, 1, m+1, 2, ...]`` — every contiguous block straddles both
    value ranges, so each block rewrites piles earlier blocks built.
    """
    m = (n + 1) // 2
    out = np.empty(n, dtype=np.int64)
    out[0::2] = np.arange(m)[: out[0::2].shape[0]]
    out[1::2] = np.arange(m, 2 * m)[: out[1::2].shape[0]]
    return out


def _dup_stream(n: int, alphabet: int, salt: int) -> np.ndarray:
    return suite_rng(salt).integers(0, alphabet, size=n).astype(np.int64)


#: Pinned worst cases.  Sizes are deliberately small enough for the DP
#: cross-check but large enough that every block size below creates
#: multi-block streams.
CORPUS: dict[str, np.ndarray] = {
    "sorted": np.arange(144, dtype=np.int64),
    "reversed": np.arange(144, dtype=np.int64)[::-1].copy(),
    "organ-pipe": _organ_pipe(143).astype(np.int64),
    "valley": _organ_pipe(143)[::-1].copy().astype(np.int64),
    "block-rotation": np.roll(np.arange(150, dtype=np.int64), 50),
    "block-swap": np.concatenate(
        [np.arange(70, 140), np.arange(0, 70)]
    ).astype(np.int64),
    "interleaved-runs": _interleaved_runs(141),
    "far-moved-packet": np.concatenate(
        [[137], np.arange(137), [138, 139]]
    ).astype(np.int64),
    "duplicate-heavy": _dup_stream(140, 7, salt=101),
    "binary-tags": _dup_stream(150, 2, salt=102),
    "all-equal": np.zeros(130, dtype=np.int64),
}


def _swapped_pairs(n: int) -> np.ndarray:
    """``[1, 0, 3, 2, ...]``: a run of 2-blocks (an odd tail stays put)."""
    out = np.arange(n, dtype=np.int64)
    even = n - n % 2
    out[0:even:2] += 1
    out[1:even:2] -= 1
    return out


def _nested_blocks() -> np.ndarray:
    """Singleton runs between blocks whose interiors hold smaller blocks.

    ``[3, 1, 0, 2]`` and the displaced frame around a rotation are one
    block each: one out-of-place element merges what would otherwise be
    several blocks (or singletons) inside it.
    """
    pieces = [
        np.arange(0, 5),  # singletons
        5 + np.array([3, 1, 0, 2]),  # a block with a 2-block inside
        np.arange(9, 12),  # singletons
        12 + np.concatenate([[9], np.roll(np.arange(9), 3)]),  # frame + rotation
        np.arange(22, 24),  # singletons
        24 + np.concatenate([_swapped_pairs(6), [7, 6]])[::-1],  # a reversed run of pairs
        np.arange(32, 36),  # singletons
        36 + np.array([1, 0, 2, 4, 3]),  # two 2-blocks around a singleton
    ]
    return np.concatenate(pieces).astype(np.int64)


#: Cases built for the cut blocks of :func:`lis_membership` (cut after
#: ``i`` where ``max(seq[:i+1]) < min(seq[i+1:])``): where cuts fall,
#: where they must not, and how many rows skip the patience loop.
CUT_CORPUS: dict[str, np.ndarray] = {
    "empty": np.empty(0, dtype=np.int64),
    "length-1": np.array([7], dtype=np.int64),
    "reversed": np.arange(97, dtype=np.int64)[::-1].copy(),
    "far-displaced-first": np.concatenate([[119], np.arange(119)]).astype(np.int64),
    "far-displaced-last": np.concatenate([np.arange(1, 120), [0]]).astype(np.int64),
    "duplicates-at-cut": np.repeat(np.arange(40, dtype=np.int64), 2),
    "duplicates-straddle": np.array(
        [0, 1, 2, 3, 3, 4, 5, 5, 5, 6, 8, 7, 7, 9, 9, 10], dtype=np.int64
    ),
    "swapped-pairs": _swapped_pairs(120),
    "swapped-pairs-odd": _swapped_pairs(121),
    "nested-blocks": _nested_blocks(),
}


def _block_sizes(n: int) -> list[int]:
    """The block grid: 1, 2, a prime, n−1, n."""
    return sorted({1, 2, 13, max(1, n - 1), max(1, n)})


def _check_mask(seq: np.ndarray, mask: np.ndarray) -> None:
    """Structural sanity: the mask marks a strictly increasing subsequence."""
    picked = seq[mask]
    assert np.all(np.diff(picked) > 0)


def _corpus_pair(seq: np.ndarray, salt: int = 211):
    """Baseline A plus a run B whose i-th arrival carries tag ``seq[i]``.

    A holds the sorted tags, so the matched A-positions in B order are
    ``seq`` with ties broken by arrival (occurrence matching makes every
    packet unique): for the permutations in the corpus they are ``seq``'s
    ranks exactly.
    """
    n = seq.shape[0]
    rng = suite_rng(salt)
    a = make_trial(np.cumsum(rng.exponential(200.0, size=n)), np.sort(seq), label="A")
    b = make_trial(np.cumsum(rng.exponential(200.0, size=n)), seq, label="B")
    return a, b


def _stream(a, b, chunk: int) -> StreamKappa:
    sk = StreamKappa(a)
    for lo in range(0, len(b), chunk):
        sk.update(b.tags[lo : lo + chunk], b.times_ns[lo : lo + chunk])
    return sk


def _blocked_state(seq: np.ndarray, block: int):
    """Patience state after feeding ``seq`` block by block, resuming each time.

    Returns the canonical mask walked out of the final state and the pile
    count after each block.
    """
    tails_vals: list = []
    tails_idx: list[int] = []
    prev = np.full(seq.shape[0], -1, dtype=np.int64)
    piles = []
    for lo in range(0, seq.shape[0], block):
        hi = min(lo + block, seq.shape[0])
        patience_fill(seq[lo:hi].tolist(), tails_vals, tails_idx, prev[lo:hi], offset=lo)
        piles.append(len(tails_idx))
    mask = np.zeros(seq.shape[0], dtype=bool)
    mask[lis_indices_from_state(tails_idx, prev)] = True
    return mask, piles


class TestCorpusSerialReference:
    """The serial canonical mask itself is pinned against the DP."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_serial_mask_matches_dp_length(self, name):
        seq = CORPUS[name]
        mask = lis_membership(seq)
        _check_mask(seq, mask)
        want_len = naive_lcs_length(np.unique(seq), seq)
        assert int(mask.sum()) == want_len


def _patience_rows() -> int:
    return metrics.counter("ordering.patience_rows").value


class TestCutBlocks:
    """The cut-block mask against the whole-sequence patience loop."""

    @pytest.mark.parametrize("name", sorted(CUT_CORPUS))
    def test_mask_is_whole_sequence_patience(self, name):
        seq = CUT_CORPUS[name]
        want, piles = _blocked_state(seq, max(1, seq.shape[0]))
        assert len(piles) <= 1
        mask = lis_membership(seq)
        assert np.array_equal(mask, want)
        _check_mask(seq, mask)
        assert int(mask.sum()) == naive_lcs_length(np.unique(seq), seq)
        assert np.array_equal(
            longest_increasing_subsequence(seq), np.flatnonzero(want)
        )

    def test_far_displaced_element_merges_everything(self):
        """One element displaced across the sequence leaves no cut: every
        row runs the patience loop."""
        for name in ("far-displaced-first", "far-displaced-last"):
            seq = CUT_CORPUS[name]
            before = _patience_rows()
            lis_membership(seq)
            assert _patience_rows() - before == seq.shape[0], name

    def test_ties_never_split(self):
        """A cut needs ``max(prefix) < min(suffix)``: equal values on both
        sides of a boundary stay in one block, which keeps one of them."""
        seq = CUT_CORPUS["duplicates-at-cut"]
        before = _patience_rows()
        mask = lis_membership(seq)
        assert _patience_rows() - before == seq.shape[0]
        # bisect_left replaces a tie in place: the later copy is kept.
        assert np.array_equal(mask, np.tile([False, True], 40))

    def test_two_blocks_keep_their_second_element(self):
        seq = CUT_CORPUS["swapped-pairs-odd"]
        mask = lis_membership(seq)
        want = np.tile([False, True], 60).tolist() + [True]
        assert mask.tolist() == want

    def test_only_reordered_rows_run_patience(self):
        seq = CUT_CORPUS["nested-blocks"]
        before = _patience_rows()
        lis_membership(seq)
        # 4 + 10 + 8 + 2 + 2 rows sit in non-singleton blocks.
        assert _patience_rows() - before == 26

    def test_identity_pair_adds_no_patience_rows(self):
        a, b = _corpus_pair(CORPUS["sorted"])
        before = _patience_rows()
        compare_trials(a, b)
        assert _patience_rows() == before

    def test_reversed_pair_adds_every_row(self):
        seq = CORPUS["reversed"]
        a, b = _corpus_pair(seq)
        before = _patience_rows()
        compare_trials(a, b)
        assert _patience_rows() - before == seq.shape[0]


class TestCorpusShardedExact:
    """The corpus split into blocks (stream chunks) reproduces the serial
    canonical mask and the batch metrics exactly."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_all_block_sizes_in_process(self, name):
        """Every block size of the grid: the resumed loop's mask on the
        sequence itself, and StreamKappa's mask and metrics on its pair."""
        seq = CORPUS[name]
        want_seq = lis_membership(seq)
        want_len = naive_lcs_length(np.unique(seq), seq)
        a, b = _corpus_pair(seq)
        perm = b_order_ranks(match_trials(a, b))
        want_perm = lis_membership(perm)
        want_metrics = compare_trials(a, b).metrics
        for bp in _block_sizes(seq.shape[0]):
            mask, _ = _blocked_state(seq, bp)
            assert np.array_equal(mask, want_seq), (name, bp)
            assert int(mask.sum()) == want_len
            _check_mask(seq, mask)
            sk = _stream(a, b, bp)
            got = sk.edit_script().lcs_mask_b_order
            assert np.array_equal(got, want_perm), (name, bp)
            assert int(got.sum()) == naive_lcs_length(np.unique(perm), perm)
            _check_mask(perm, got)
            assert sk.result() == want_metrics, (name, bp)

    @pytest.mark.parametrize("jobs", [j for j in JOB_COUNTS if j > 1] or [2])
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_pooled_block_sizes_exact(self, name, jobs):
        """Corpus pairs as a series through a live pool, and streamed at
        every block size, all equal the serial reports."""
        seq = CORPUS[name]
        a, b = _corpus_pair(seq)
        _, b2 = _corpus_pair(seq[::-1].copy(), salt=212)
        trials = [a, b.relabel(""), b2.relabel("")]
        got = compare_series_parallel(trials, environment=name, jobs=jobs)
        want = compare_series(trials, environment=name)
        for g, w in zip(got.pairs, want.pairs):
            assert g.metrics == w.metrics, (name, jobs)
            assert g.move_stats == w.move_stats, (name, jobs)
        perm = b_order_ranks(match_trials(a, b))
        n_moved = perm.shape[0] - int(lis_membership(perm).sum())
        assert got.pairs[0].move_stats.n_moved == n_moved
        for bp in _block_sizes(seq.shape[0]):
            assert _stream(a, b, bp).result() == got.pairs[0].metrics, (name, bp)


class TestMergeMoves:
    """How blocks meet the live pile state when the patience loop resumes
    at a block boundary — and that the mask stays canonical either way."""

    def test_sorted_splices_every_block(self):
        """Every block of a sorted stream lands wholly on new piles."""
        seq = CORPUS["sorted"]
        mask, piles = _blocked_state(seq, 12)
        assert piles == [min(12 * (k + 1), seq.shape[0]) for k in range(len(piles))]
        assert np.array_equal(mask, lis_membership(seq))

    def test_reversed_splices_every_block(self):
        """Every block of a descending stream collapses onto pile 0."""
        seq = CORPUS["reversed"]
        mask, piles = _blocked_state(seq, 12)
        assert piles == [1] * len(piles)
        assert np.array_equal(mask, lis_membership(seq))

    def test_interleaved_runs_replay(self):
        """Blocks straddling earlier value ranges rewrite earlier piles."""
        seq = CORPUS["interleaved-runs"]
        mask, piles = _blocked_state(seq, 12)
        # After the first block, each block adds at most half its elements
        # as new piles: its low-run half overwrites tails already built.
        assert all(hi - lo <= 6 for lo, hi in zip(piles, piles[1:]))
        assert np.array_equal(mask, lis_membership(seq))

    def test_single_block_is_serial(self):
        seq = CORPUS["duplicate-heavy"]
        mask, piles = _blocked_state(seq, seq.shape[0])
        assert len(piles) == 1
        assert np.array_equal(mask, lis_membership(seq))


class TestDuplicateHeavyEndToEnd:
    """Duplicate-heavy *trial pairs*: every EditScript field of the
    streamed comparison bit-identical to batch, not just the mask, and
    the pooled series equal to serial."""

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_sharded_edit_script_fields_exact(self, jobs):
        rng = suite_rng(salt=103)
        for trial_n, alphabet in ((180, 3), (240, 9)):
            tags = rng.integers(0, alphabet, size=trial_n).astype(np.int64)
            times = np.cumsum(rng.exponential(100.0, size=trial_n))
            a = make_trial(times, tags)
            runs = []
            for _ in range(2):
                keep = rng.random(trial_n) > 0.1
                bt = times[keep] + rng.normal(0.0, 250.0, size=int(keep.sum()))
                order = np.argsort(bt, kind="stable")
                runs.append(make_trial(bt[order], tags[keep][order]))
            b = runs[0]
            m = match_trials(a, b)
            want = edit_script_from_matching(m)
            for bp in _block_sizes(m.n_common):
                got = _stream(a, b, bp).edit_script()
                assert np.array_equal(got.lcs_mask_b_order, want.lcs_mask_b_order)
                assert np.array_equal(got.signed_distances, want.signed_distances)
                assert np.array_equal(got.moved_distances, want.moved_distances)
                assert np.array_equal(got.deletions_b, want.deletions_b)
                assert np.array_equal(got.insertions_a, want.insertions_a)
                assert got.total_distance() == want.total_distance()
            got_series = compare_series_parallel([a, *runs], jobs=jobs)
            want_series = compare_series([a, *runs])
            for g, w in zip(got_series.pairs, want_series.pairs):
                assert g.metrics == w.metrics
                assert g.move_stats == w.move_stats

    def test_permutation_is_b_order_ranks(self):
        """The streamed mask is the LIS of the permutation serial runs on."""
        rng = suite_rng(salt=104)
        tags = rng.integers(0, 5, size=90).astype(np.int64)
        times = np.cumsum(rng.exponential(80.0, size=90))
        a = make_trial(times, tags)
        b = make_trial(np.sort(times + rng.normal(0, 200, 90)), tags)
        seq = b_order_ranks(match_trials(a, b))
        assert np.array_equal(
            _stream(a, b, 7).edit_script().lcs_mask_b_order, lis_membership(seq)
        )


class TestEdgeShapes:
    def test_empty_sequence(self):
        assert lis_membership(np.empty(0, dtype=np.int64)).shape == (0,)
        a = make_trial([0.0, 1.0], tags=[1, 2])
        sk = StreamKappa(a)
        assert sk.edit_script().lcs_mask_b_order.shape == (0,)

    def test_single_element(self):
        assert np.array_equal(
            lis_membership(np.array([5], dtype=np.int64)), np.array([True])
        )
        a = make_trial([0.0], tags=[5])
        got = _stream(a, make_trial([3.0], tags=[5]), 1).edit_script()
        assert np.array_equal(got.lcs_mask_b_order, np.array([True]))

    def test_block_larger_than_sequence(self):
        seq = CORPUS["organ-pipe"]
        a, b = _corpus_pair(seq)
        got = _stream(a, b, 10_000).edit_script().lcs_mask_b_order
        assert np.array_equal(got, lis_membership(b_order_ranks(match_trials(a, b))))

    def test_invalid_block_size(self):
        """A misshapen block (tags and times disagree in length) is refused."""
        sk = StreamKappa(make_trial([0.0, 1.0], tags=[1, 2]))
        with pytest.raises(ValueError):
            sk.update(np.array([1, 2]), np.array([0.0]))

    def test_noncontiguous_blocks_rejected(self):
        """A block that does not continue the stream (time goes back) is refused."""
        seq = CORPUS["sorted"]
        a, b = _corpus_pair(seq)
        sk = StreamKappa(a)
        sk.update(b.tags[12:24], b.times_ns[12:24])
        with pytest.raises(ValueError):
            sk.update(b.tags[:12], b.times_ns[:12])
