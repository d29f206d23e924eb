"""Paired timing for the perf gates: contenders measured round by round."""

import time

import numpy as np


def alternating_rounds(k, *fns):
    """Per-round wall times of each of ``fns`` over k rounds.

    Each round runs every contender once, back to back, reversing the
    order every other round so neither always runs right after the
    other.  Gates read the median of per-round ratios, a paired
    estimator: a drift in host speed hits both contenders of a round
    alike and cancels, where a ratio of two best-of minima lets one
    contender's lucky round decide.
    """
    times = [[] for _ in fns]
    for r in range(k):
        for j in range(len(fns)) if r % 2 == 0 else reversed(range(len(fns))):
            t0 = time.perf_counter()
            fns[j]()
            times[j].append(time.perf_counter() - t0)
    return [np.array(t) for t in times]
