"""Property-based tests (hypothesis) for the Section-3 metric invariants.

These encode the normalization claims the paper proves informally:
every metric is symmetric, lies in [0, 1], is zero exactly on identical
trials, and the worst-case constructions are actual maxima.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    Trial,
    iat_variation,
    kappa_from_vector,
    latency_variation,
    longest_increasing_subsequence,
    match_trials,
    naive_lcs_length,
    occurrence_ranks,
    ordering_variation,
    uniqueness_variation,
)
from repro.core.ordering import lis_indices_from_state, lis_membership, patience_fill

# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

times_arrays = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=60),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
).map(np.sort)


@st.composite
def trial_pairs(draw):
    """Two trials over a shared small tag universe (overlap is common)."""
    n_a = draw(st.integers(1, 40))
    n_b = draw(st.integers(1, 40))
    tag_pool = draw(st.integers(2, 20))
    tags_a = draw(
        hnp.arrays(np.int64, n_a, elements=st.integers(0, tag_pool))
    )
    tags_b = draw(
        hnp.arrays(np.int64, n_b, elements=st.integers(0, tag_pool))
    )
    t_a = np.sort(
        draw(hnp.arrays(np.float64, n_a, elements=st.floats(0, 1e6, allow_nan=False)))
    )
    t_b = np.sort(
        draw(hnp.arrays(np.float64, n_b, elements=st.floats(0, 1e6, allow_nan=False)))
    )
    return Trial(tags_a, t_a, label="A"), Trial(tags_b, t_b, label="B")


@st.composite
def permutation_pairs(draw):
    """Two trials that are permutations of the same unique packets."""
    n = draw(st.integers(1, 50))
    perm = draw(st.permutations(range(n)))
    t = np.arange(n, dtype=np.float64) * 10.0
    a = Trial(np.arange(n, dtype=np.int64), t, label="A")
    b = Trial(np.asarray(perm, dtype=np.int64), t, label="B")
    return a, b


# --------------------------------------------------------------------------
# Metric invariants
# --------------------------------------------------------------------------


@given(trial_pairs())
@settings(max_examples=150, deadline=None)
def test_uniqueness_symmetric_and_bounded(pair):
    a, b = pair
    u_ab = uniqueness_variation(a, b)
    assert 0.0 <= u_ab <= 1.0
    assert u_ab == uniqueness_variation(b, a)


@given(trial_pairs())
@settings(max_examples=100, deadline=None)
def test_latency_bounded_and_symmetric(pair):
    a, b = pair
    l_ab = latency_variation(a, b)
    assert 0.0 <= l_ab <= 1.0 + 1e-9
    assert abs(l_ab - latency_variation(b, a)) < 1e-12


@given(trial_pairs())
@settings(max_examples=100, deadline=None)
def test_iat_bounded_and_symmetric(pair):
    a, b = pair
    i_ab = iat_variation(a, b)
    assert 0.0 <= i_ab <= 1.0 + 1e-9
    assert abs(i_ab - iat_variation(b, a)) < 1e-12


@given(permutation_pairs())
@settings(max_examples=100, deadline=None)
def test_ordering_bounded_on_permutations(pair):
    a, b = pair
    o = ordering_variation(a, b)
    assert 0.0 <= o <= 1.0 + 1e-9


@given(times_arrays)
@settings(max_examples=80, deadline=None)
def test_identity_gives_all_zero_and_kappa_one(times):
    t = Trial(np.arange(times.shape[0], dtype=np.int64), times)
    assert uniqueness_variation(t, t) == 0.0
    assert ordering_variation(t, t) == 0.0
    assert latency_variation(t, t) == 0.0
    assert iat_variation(t, t) == 0.0


@given(times_arrays, st.floats(-1e9, 1e9, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_shift_invariance_of_I_and_U_and_O(times, shift):
    # Snap to a picosecond grid: sub-attosecond gap structure is not
    # representable after a nanosecond-scale shift (pure float64 effect,
    # irrelevant to the metric semantics under test).
    times = np.round(times, 3)
    shift = round(shift, 3)
    t = Trial(np.arange(times.shape[0], dtype=np.int64), times)
    s = t.shift_ns(shift)
    # Each shifted endpoint is representable only to ulp(|shift| + t), so
    # every gap can be off by a couple of ulps; the tolerance must scale
    # with shift magnitude relative to the Equation-4 denominator (2x the
    # span) or tiny-gap examples fail on pure float64 rounding.
    span2 = 2.0 * (times[-1] - times[0])
    eps_err = 4.0 * np.finfo(np.float64).eps * (abs(shift) + times[-1]) * (
        times.shape[0] - 1
    )
    tol = 1e-9 + (eps_err / span2 if span2 > 0.0 else 0.0)
    assert iat_variation(t, s) < tol
    assert uniqueness_variation(t, s) == 0.0
    assert ordering_variation(t, s) == 0.0


@given(
    st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)
)
@settings(max_examples=200, deadline=None)
def test_kappa_bounds_and_monotonicity(u, o, l, i):
    k = kappa_from_vector(u, o, l, i)
    assert 0.0 <= k <= 1.0
    # Increasing any component can only decrease kappa.
    k_worse = kappa_from_vector(min(1.0, u + 0.1), o, l, i)
    assert k_worse <= k + 1e-12


# --------------------------------------------------------------------------
# Algorithmic invariants
# --------------------------------------------------------------------------


@given(st.permutations(range(40)))
@settings(max_examples=100, deadline=None)
def test_lis_equals_naive_lcs(perm):
    """Schensted: LIS of the rank sequence == LCS of the permutations."""
    seq = np.asarray(perm)
    lis_len = longest_increasing_subsequence(seq).shape[0]
    assert lis_len == naive_lcs_length(np.arange(seq.shape[0]), seq)


@given(hnp.arrays(np.int64, st.integers(0, 80), elements=st.integers(-50, 50)))
@settings(max_examples=100, deadline=None)
def test_lis_output_is_valid_increasing_subsequence(seq):
    idx = longest_increasing_subsequence(seq)
    if idx.shape[0] > 1:
        assert np.all(np.diff(idx) > 0)
        assert np.all(np.diff(seq[idx]) > 0)


@st.composite
def near_sorted_with_duplicates(draw):
    """A sorted run with repeated values, a few elements moved away and a
    little bounded jitter: many cut blocks, ties at would-be cuts."""
    n = draw(st.integers(0, 120))
    repeat = draw(st.integers(1, 4))
    seq = np.arange(n, dtype=np.int64) // repeat
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        seq = np.insert(np.delete(seq, i), j, seq[i])
    jitter = draw(hnp.arrays(np.int64, n, elements=st.integers(-1, 1)))
    return seq + jitter * draw(st.booleans())


@given(near_sorted_with_duplicates())
@settings(max_examples=200, deadline=None)
def test_lis_membership_equals_plain_patience(seq):
    """The cut-block mask is the whole-sequence patience walk's mask."""
    tails_vals: list = []
    tails_idx: list[int] = []
    prev = np.full(seq.shape[0], -1, dtype=np.int64)
    patience_fill(seq.tolist(), tails_vals, tails_idx, prev)
    want = np.zeros(seq.shape[0], dtype=bool)
    want[lis_indices_from_state(tails_idx, prev)] = True
    assert np.array_equal(lis_membership(seq), want)


@given(hnp.arrays(np.int64, st.integers(0, 100), elements=st.integers(0, 10)))
@settings(max_examples=100, deadline=None)
def test_occurrence_ranks_make_keys_unique(tags):
    ranks = occurrence_ranks(tags)
    keys = set(zip(tags.tolist(), ranks.tolist()))
    assert len(keys) == tags.shape[0]


@given(trial_pairs())
@settings(max_examples=100, deadline=None)
def test_matching_is_consistent(pair):
    a, b = pair
    m = match_trials(a, b)
    assert m.n_common <= min(len(a), len(b))
    # Matched packets carry equal tags.
    np.testing.assert_array_equal(a.tags[m.idx_a], b.tags[m.idx_b])
    # Indices are unique on both sides (a packet matches at most once).
    assert np.unique(m.idx_a).shape[0] == m.n_common
    assert np.unique(m.idx_b).shape[0] == m.n_common
