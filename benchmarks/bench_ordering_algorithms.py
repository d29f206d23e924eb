"""Ablation: O(n log n) LIS ordering metric vs the O(n²) textbook LCS.

Section 3 leans on Schensted's correspondence to make the ordering metric
tractable at packet-capture sizes ("the LCS is findable in O(n log n)
time").  This benchmark quantifies why: the naive dynamic program is
thousands of times slower already at 20k packets and simply cannot run at
the paper's 1M-packet captures.

``test_lis_cut_blocks_gate`` gates the cut-block
:func:`repro.core.ordering.lis_membership` against the plain patience
loop over the whole sequence (the oracle) on ~1.05M rows (221k under
``REPRO_BENCH_SMOKE=1``), with both masks asserted bit-equal.  The two
run in alternating rounds and the gate reads the median of the per-round
time ratios: a paired estimator, so a drift in host speed cancels inside
each round instead of handing one contender a lucky minimum.  Gates: on a
near-identity permutation it must be >= 5x faster than the oracle; on a
random permutation, where no row is a singleton block, it must take
<= 1.10x the oracle's time.
"""

import os
import time

import numpy as np
from _timing import alternating_rounds

from repro.analysis import render_metric_rows
from repro.core import longest_increasing_subsequence, naive_lcs_length
from repro.core.ordering import lis_indices_from_state, lis_membership, patience_fill

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: Rows of the gate's permutations (full: the paper's Section-6.1 capture).
GATE_N = 221_000 if SMOKE else 1_055_648
#: Adjacent swaps in the near-identity permutation: 15k per paper-scale capture.
GATE_SWAPS = 15_000 * GATE_N // 1_055_648
#: Alternating rounds per contender.  On a shared 2-core host the plain
#: loop alone varied 0.94-1.41 s per 1.05M-row call, which is why the
#: gate pairs the contenders round by round.
GATE_ROUNDS = 15


def test_lis_vs_naive_lcs(once, emit, bench_params):
    bench_params(seed=0, sizes=[500, 2_000, 8_000])
    rng = np.random.default_rng(0)
    rows = []
    for n in (500, 2_000, 8_000):
        perm = rng.permutation(n)
        t0 = time.perf_counter()
        lis_len = longest_increasing_subsequence(perm).shape[0]
        t_lis = time.perf_counter() - t0
        t0 = time.perf_counter()
        lcs_len = naive_lcs_length(np.arange(n), perm)
        t_naive = time.perf_counter() - t0
        assert lis_len == lcs_len
        rows.append({
            "n": n,
            "lis_ms": t_lis * 1e3,
            "naive_dp_ms": t_naive * 1e3,
            "speedup": t_naive / t_lis,
        })

    # Paper scale: LIS only (the DP would need ~1e12 cell updates).
    perm = rng.permutation(1_055_648)
    t0 = time.perf_counter()
    once(lambda: longest_increasing_subsequence(perm))
    t_paper = time.perf_counter() - t0
    emit(
        "ablation_ordering_algorithms",
        render_metric_rows(rows)
        + f"\nLIS at paper scale (1,055,648 packets): {t_paper:.2f} s\n"
        "naive DP at paper scale: infeasible (~1.1e12 cell updates)\n",
    )
    assert rows[-1]["speedup"] > 10


def _plain_patience_mask(seq: np.ndarray) -> np.ndarray:
    """The oracle: one patience loop and walk over every row of ``seq``."""
    tails_vals: list = []
    tails_idx: list[int] = []
    prev = np.full(seq.shape[0], -1, dtype=np.intp)
    patience_fill(seq.tolist(), tails_vals, tails_idx, prev)
    mask = np.zeros(seq.shape[0], dtype=bool)
    mask[lis_indices_from_state(tails_idx, prev)] = True
    return mask


def _near_identity(n: int, rng: np.random.Generator) -> np.ndarray:
    """The identity with sparse, non-overlapping adjacent swaps."""
    perm = np.arange(n, dtype=np.int64)
    i = np.sort(rng.choice(n - 1, size=GATE_SWAPS, replace=False))
    i = i[np.diff(i, prepend=-2) > 1]
    perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def test_lis_cut_blocks_gate(emit, emit_json):
    rng = np.random.default_rng(0)
    cases = {
        "near_identity": _near_identity(GATE_N, rng),
        "random": rng.permutation(GATE_N).astype(np.int64),
    }
    times = {}
    for name, perm in cases.items():
        assert np.array_equal(lis_membership(perm), _plain_patience_mask(perm)), name
        times[name] = alternating_rounds(
            GATE_ROUNDS,
            lambda: lis_membership(perm),
            lambda: _plain_patience_mask(perm),
        )
    # The gated statistic: median over rounds of plain / cut time.
    speedup = {
        name: float(np.median(oracle / cut)) for name, (cut, oracle) in times.items()
    }

    lines = [
        f"LIS by cut blocks vs plain patience, n={GATE_N} rows"
        f"{' (smoke)' if SMOKE else ''}, {GATE_ROUNDS} alternating rounds",
        f"{'permutation':>14s}  {'cut ms':>8s}  {'plain ms':>8s}  {'speedup':>7s}",
    ]
    for name, (cut, oracle) in times.items():
        lines.append(
            f"{name:>14s}  {cut.min() * 1e3:8.1f}  {oracle.min() * 1e3:8.1f}  "
            f"{speedup[name]:6.2f}x"
        )
    lines.append("times are best of the rounds; speedup is the median per-round ratio")
    lines.append("masks asserted bit-equal to the plain patience loop")
    emit("lis_cut_blocks", "\n".join(lines))
    emit_json(
        "lis_cut_blocks",
        {
            "n_rows": GATE_N,
            "seed": 0,
            "near_identity_swaps": GATE_SWAPS,
            "rounds": GATE_ROUNDS,
            "smoke": SMOKE,
        },
        sum(float(cut.min()) for cut, _ in times.values()),
        {
            **{
                f"{name}_{which}": float(t.min())
                for name, (cut, oracle) in times.items()
                for which, t in (("cut", cut), ("plain", oracle))
            },
            **{f"{name}_median_speedup": x for name, x in speedup.items()},
        },
    )

    assert speedup["near_identity"] >= 5.0, (
        f"near-identity LIS only {speedup['near_identity']:.2f}x faster than "
        "plain patience (median per-round ratio); gate is 5x"
    )
    assert 1.0 / speedup["random"] <= 1.10, (
        f"random-permutation LIS {1.0 / speedup['random']:.2f}x the plain "
        "patience time (median per-round ratio); bound is 1.10x"
    )
