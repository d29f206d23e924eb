"""Exact fast paths of table2's two largest layers, gated against their oracles.

* **Tail drop.**  The vectorized :func:`repro.net.fifo_tail_drop` against
  the sequential definition it replaced (``scalar_tail_drop``, the
  differential oracle of ``tests/test_queueing.py``), on the input the
  noisy shared port really serves: the merged foreground + background
  stream of one ``fabric-shared-40g-noisy`` run (default scale 0.25,
  ~528k packets; 0.05 under ``REPRO_BENCH_SMOKE=1``).
* **Unique-tag matching.**  :func:`repro.core.matching.match_tag_arrays`
  on a 1M-packet pair with unique tags (a dual-replayer baseline against
  a run with adjacent swaps: local-dual's shape), against the grouped
  duplicate-tag path on the same pair (forced by giving A two copies of
  a tag B lacks, which changes no matched row).  The same run with 0.1%
  of its packets dropped (the noisy scenario's shape, where the unique
  path pays a full ``searchsorted``) is timed and reported, not gated.

Both contenders run in alternating rounds; each gate reads the median of
the per-round time ratios, and the outputs are asserted bit-equal.
Gates: each fast path >= 3x its slow counterpart.
"""

import os
import sys
from pathlib import Path

import numpy as np
from _timing import alternating_rounds

from repro.core.matching import match_tag_arrays
from repro.experiments.scenarios import scenario
from repro.net import fifo_tail_drop, make_tags
from repro.testbeds.base import Testbed

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.test_queueing import scalar_tail_drop  # noqa: E402

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: Duration scale of the noisy run whose shared-port input is timed.
NOISY_SCALE = 0.05 if SMOKE else 0.25
#: Packets per side of the matching pair.
MATCH_N = 1_000_000
ROUNDS = 7
GATE = 3.0


def _noisy_port_input():
    """``(ready, service, capacity)`` of one noisy run's shared port."""
    import repro.net.sriov as sriov

    calls = []

    def recording(ready, service, capacity):
        calls.append((ready, service, capacity))
        return fifo_tail_drop(ready, service, capacity)

    original = sriov.fifo_tail_drop
    sriov.fifo_tail_drop = recording
    try:
        profile = scenario("fabric-shared-40g-noisy").profile(NOISY_SCALE)
        Testbed(profile, seed=0).run_series(1)
    finally:
        sriov.fifo_tail_drop = original
    (call,) = calls
    return call


def _unique_pairs(rng):
    """Table2-shaped unique-tag pairs: sorted dual-replayer baseline tags
    against a run with adjacent swaps, without and with drops."""
    half = MATCH_N // 2
    base = np.sort(np.concatenate([make_tags(half), make_tags(half, replayer_id=1)]))
    run = base.copy()
    swap = 2 * rng.choice(run.size // 2, MATCH_N // 70, replace=False)
    run[swap], run[swap + 1] = run[swap + 1], run[swap]
    dropped = np.delete(run, rng.choice(run.size, MATCH_N // 1000, replace=False))
    return base, run, dropped


def test_exact_fast_path_gates(emit, emit_json):
    ready, service, capacity = _noisy_port_input()
    fast = fifo_tail_drop(ready, service, capacity)
    want_done, want_acc = scalar_tail_drop(ready, service, capacity)
    assert np.array_equal(fast.accepted, want_acc)
    assert fast.done_ns.tobytes() == want_done.tobytes()
    assert fast.n_dropped > 0

    a, b, b_dropped = _unique_pairs(np.random.default_rng(0))
    absent = np.int64(a.max() + 1)
    a_dup = np.append(a, [absent, absent])
    for run in (b, b_dropped):
        for got, want in zip(match_tag_arrays(a, run), match_tag_arrays(a_dup, run)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    drop_fast, drop_slow = alternating_rounds(
        ROUNDS,
        lambda: fifo_tail_drop(ready, service, capacity),
        lambda: scalar_tail_drop(ready, service, capacity),
    )
    match_fast, match_slow = alternating_rounds(
        ROUNDS, lambda: match_tag_arrays(a, b), lambda: match_tag_arrays(a_dup, b)
    )
    dropped_fast, dropped_slow = alternating_rounds(
        ROUNDS,
        lambda: match_tag_arrays(a, b_dropped),
        lambda: match_tag_arrays(a_dup, b_dropped),
    )
    speedup = {
        "tail_drop": float(np.median(drop_slow / drop_fast)),
        "unique_match": float(np.median(match_slow / match_fast)),
    }
    dropped_speedup = float(np.median(dropped_slow / dropped_fast))
    best = {
        "tail_drop_fast": drop_fast.min(),
        "tail_drop_scalar": drop_slow.min(),
        "unique_match_fast": match_fast.min(),
        "unique_match_grouped": match_slow.min(),
    }

    lines = [
        f"exact fast paths{' (smoke)' if SMOKE else ''}, {ROUNDS} alternating rounds",
        f"tail drop: {ready.size} packets, capacity {capacity}, "
        f"{fast.n_dropped} dropped (noisy shared port at scale {NOISY_SCALE})",
        f"  vectorized {best['tail_drop_fast'] * 1e3:8.1f} ms   scalar "
        f"{best['tail_drop_scalar'] * 1e3:8.1f} ms   {speedup['tail_drop']:5.2f}x",
        f"unique-tag matching: {a.size} vs {b.size} packets",
        f"  unique {best['unique_match_fast'] * 1e3:8.1f} ms   grouped "
        f"{best['unique_match_grouped'] * 1e3:8.1f} ms   {speedup['unique_match']:5.2f}x",
        f"  with {a.size - b_dropped.size} drops (not gated): unique "
        f"{dropped_fast.min() * 1e3:8.1f} ms   grouped {dropped_slow.min() * 1e3:8.1f} ms"
        f"   {dropped_speedup:5.2f}x",
        "times are best of the rounds; speedups are median per-round ratios",
        "outputs asserted bit-equal to the slow paths",
    ]
    emit("exact_fast_paths", "\n".join(lines))
    emit_json(
        "exact_fast_paths",
        {
            "noisy_scale": NOISY_SCALE,
            "match_n": MATCH_N,
            "rounds": ROUNDS,
            "seed": 0,
            "smoke": SMOKE,
        },
        best["tail_drop_fast"] + best["unique_match_fast"],
        {
            **best,
            "unique_match_dropped_fast": dropped_fast.min(),
            "unique_match_dropped_grouped": dropped_slow.min(),
            "unique_match_dropped_median_speedup": dropped_speedup,
            **{f"{k}_median_speedup": v for k, v in speedup.items()},
        },
    )

    for name, x in speedup.items():
        assert x >= GATE, f"{name} only {x:.2f}x its slow path; gate is {GATE}x"
