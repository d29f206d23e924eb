"""FIFO service primitives, vectorized.

The workhorse of the whole simulator is the single-server FIFO recurrence

.. math::

    \\mathrm{done}_i = \\max(\\mathrm{ready}_i, \\mathrm{done}_{i-1})
                      + \\mathrm{service}_i

(link serialization, switch egress, DMA engines, and the shared-NIC
scheduler are all instances).  A naive Python loop over a million packets
would dominate the runtime; :func:`fifo_departures` computes the
recurrence in a handful of NumPy passes:

with ``c = cumsum(service)`` and ``c_prev = c - service``,

.. math::

    \\mathrm{done}_i = c_i + \\max_{j \\le i}(\\mathrm{ready}_j - c_{j-1})

because unrolling the recurrence shows every prefix maximum candidate is
"packet j started service exactly at ready_j, everything after was
back-to-back".  The inner maximum is a single ``np.maximum.accumulate``.

Finite buffers (tail drop) need more: whether packet *i* is dropped feeds
back into every later departure, and the drop decisions must agree
bit-for-bit with the sequential definition.  :func:`fifo_tail_drop` is
exact without a per-packet loop:

* **Exact no-drop pass.**  Inside a busy period ``done_i = done_{i-1} +
  service_i`` is a sequential sum, which ``np.cumsum`` seeded with the
  period's first ``ready + service`` reproduces bit for bit.  The closed
  form above proposes the period starts; the seeded sums (batched as the
  rows of 2-D arrays, one per power-of-two length class) give the exact
  completions; every start decision is checked against them and the pass
  resumes from the first wrong one, seeded with an exact value, until
  none is wrong (``queue.tail_drop_rounds`` counts the resumptions).
* **Short busy periods are final.**  Dropping packets never makes a
  completion later, so each busy period of the drop-free system starts
  with an empty queue in the finite one too.  A period of at most
  ``queue_capacity`` packets therefore drops nothing and keeps its
  drop-free completions.
* **Long periods, ``capacity`` decisions at a time.**  With ``m``
  packets accepted so far (completions sorted), arrival *i* is dropped
  iff ``done[m - capacity] > ready_i``.  The next ``capacity`` decisions
  read only completions already known, so the accepted count over a
  window is one integer ``np.minimum.accumulate`` over
  ``searchsorted(done, ready, 'right') + capacity``, and the accepted
  packets' completions are one seeded ``cumsum`` (or the exact no-drop
  pass, if the queue emptied inside the window).

See ``docs/performance.md`` for the argument in full; the sequential
definition lives on as the differential oracle in ``tests/test_queueing.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import metrics

__all__ = ["fifo_departures", "fifo_tail_drop", "TailDropResult"]


def fifo_departures(ready_ns: np.ndarray, service_ns: np.ndarray) -> np.ndarray:
    """Exact FIFO service-completion times, vectorized.

    Parameters
    ----------
    ready_ns:
        Times packets become available to the server, **non-decreasing**.
    service_ns:
        Per-packet service durations (non-negative).

    Returns
    -------
    ndarray
        Time each packet finishes service; non-decreasing.
    """
    ready = np.asarray(ready_ns, dtype=np.float64)
    service = np.asarray(service_ns, dtype=np.float64)
    if ready.shape != service.shape:
        raise ValueError("ready_ns and service_ns must have equal shape")
    if ready.size == 0:
        return np.empty(0, dtype=np.float64)
    c = np.cumsum(service)
    start_slack = ready - (c - service)  # ready_j - c_{j-1}
    return c + np.maximum.accumulate(start_slack)


@dataclass(frozen=True)
class TailDropResult:
    """Outcome of finite-buffer FIFO service.

    Attributes
    ----------
    done_ns:
        Service-completion times of **accepted** packets.
    accepted:
        Boolean mask over the input marking accepted packets.
    n_dropped:
        Convenience count of drops.
    """

    done_ns: np.ndarray
    accepted: np.ndarray

    @property
    def n_dropped(self) -> int:
        return int(self.accepted.size - np.count_nonzero(self.accepted))


def _segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sequential running sums of ``values``, restarted at each of ``starts``.

    ``starts`` is increasing and begins with 0.  Every segment is summed
    left to right by ``np.cumsum`` along the rows of a 2-D array, so each
    output is the same floating-point fold a scalar loop computes.
    Segments are grouped by power-of-two length class; a row holds its
    segment followed by padding, which never reaches the segment's sums.
    """
    n = values.size
    out = np.empty(n, dtype=np.float64)
    lengths = np.diff(np.append(starts, n))
    width_log2 = np.frexp(lengths - 1)[1]  # smallest e with length <= 2**e
    for e in np.unique(width_log2).tolist():
        rows = np.flatnonzero(width_log2 == e)
        row_starts = starts[rows]
        if e == 0:
            out[row_starts] = values[row_starts]
            continue
        cols = np.arange(1 << e)
        idx = np.minimum(row_starts[:, None] + cols, n - 1)
        sums = np.cumsum(values[idx], axis=1)
        keep = cols < lengths[rows, None]
        out[idx[keep]] = sums[keep]
    return out


def _fifo_exact(ready: np.ndarray, service: np.ndarray, seed: float) -> np.ndarray:
    """``done_i = max(ready_i, done_{i-1}) + service_i`` exactly, ``done_{-1} = seed``.

    Bit-equal to the scalar fold.  The closed form proposes which packets
    start a busy period; a wrong proposal on a near-tie is found by
    checking it against the exact sums, and the pass resumes there
    seeded with the exact completion before it, which decides that
    packet exactly, so every round extends the exact prefix.
    """
    n = ready.size
    done = np.empty(n, dtype=np.float64)
    p = 0
    while p < n:
        t, s = ready[p:], service[p:]
        c = np.cumsum(s)
        prev = np.empty_like(t)
        prev[0] = seed
        prev[1:] = (c + np.maximum(np.maximum.accumulate(t - (c - s)), seed))[:-1]
        start = t >= prev
        values = s.copy()
        values[start] += t[start]
        if not start[0]:
            values[0] += seed
        seg = np.flatnonzero(start)
        if seg.size == 0 or seg[0] != 0:
            seg = np.append(0, seg)
        exact = _segment_sums(values, seg)
        prev[1:] = exact[:-1]
        # On an exact tie both choices give the same value; only a strict
        # disagreement changes a sum.
        wrong = np.flatnonzero(np.where(start, t < prev, t > prev))
        if wrong.size == 0:
            done[p:] = exact
            break
        j = int(wrong[0])  # >= 1: the first decision uses the exact seed
        done[p : p + j] = exact[:j]
        seed = exact[j - 1]
        p += j
        metrics.counter("queue.tail_drop_rounds").add()
    return done


def _serve_long_period(
    ready: np.ndarray,
    service: np.ndarray,
    done: np.ndarray,
    accepted: np.ndarray,
    capacity: int,
    i0: int,
) -> None:
    """Tail-drop service of one busy period from its first drop, in place.

    The views span one drop-free busy period; its completions before the
    first dropped arrival ``i0`` are already in ``done`` and exact, and
    ``accepted`` is all True.  Writes the decisions from ``i0`` on and
    the accepted packets' completions.
    """
    n = ready.size
    known = np.empty(n, dtype=np.float64)  # accepted completions, in order
    known[:i0] = done[:i0]
    m = i0
    last = done[i0 - 1]
    i = i0
    while i < n:
        w = min(n, i + 2 * capacity)
        q = np.arange(w - i)
        # Accepted count before each arrival: m_{q+1} = min(m_q + 1,
        # k_q + capacity), unrolled into one running minimum.  Exact
        # while the decision reads a known completion, m_q < m + capacity.
        k = np.searchsorted(known[:m], ready[i:w], side="right")
        m_after = np.minimum(np.minimum.accumulate(k + (capacity - 1) - q), m) + q + 1
        m_before = np.append(m, m_after[:-1])
        v = int(np.searchsorted(m_before, m + capacity - 1, side="right"))
        take = m_after[:v] > m_before[:v]
        accepted[i : i + v] = take
        sel = i + np.flatnonzero(take)
        if sel.size:
            t, s = ready[sel], service[sel]
            values = s.copy()
            values[0] += last
            d = np.cumsum(values)
            if t[0] > last or np.any(t[1:] > d[:-1]):  # the queue emptied
                d = _fifo_exact(t, s, last)
            done[sel] = d
            known[m : m + d.size] = d
            m += d.size
            last = d[-1]
        i += v


def fifo_tail_drop(
    ready_ns: np.ndarray,
    service_ns: np.ndarray,
    queue_capacity: int,
) -> TailDropResult:
    """FIFO service with a finite queue: arrivals beyond capacity are dropped.

    A packet arriving while ``queue_capacity`` packets are already waiting
    or in service is discarded (tail drop), as a NIC RX/TX ring or switch
    egress queue does; a packet counts as gone from its completion time
    on.  ``ready_ns`` must be non-decreasing and ``service_ns``
    non-negative.  Exact sequential semantics in NumPy passes (see the
    module docstring).
    """
    ready = np.asarray(ready_ns, dtype=np.float64)
    service = np.asarray(service_ns, dtype=np.float64)
    if ready.shape != service.shape or ready.ndim != 1:
        raise ValueError("ready_ns and service_ns must be 1-D with equal shape")
    if queue_capacity < 1:
        raise ValueError("queue_capacity must be >= 1")
    n = ready.size
    if n == 0:
        return TailDropResult(np.empty(0, dtype=np.float64), np.zeros(0, dtype=bool))
    if not np.all(ready[1:] >= ready[:-1]):
        raise ValueError("ready_ns must be non-decreasing")
    if not np.all(service >= 0):
        raise ValueError("service_ns must be non-negative")

    done = _fifo_exact(ready, service, -np.inf)
    accepted = np.ones(n, dtype=bool)

    # Busy periods of the drop-free system: arrivals that find every
    # earlier packet gone.  Arrival i of a period is its first drop iff
    # the packet ``queue_capacity`` places ahead has not yet left.
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.greater_equal(ready[1:], done[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    period = np.cumsum(new) - 1
    over = np.zeros(n, dtype=bool)
    np.greater(done[:-queue_capacity], ready[queue_capacity:], out=over[queue_capacity:])
    over &= np.arange(n) - starts[period] >= queue_capacity
    firsts = np.flatnonzero(over)
    if firsts.size == 0:
        return TailDropResult(done, accepted)
    firsts = firsts[np.append(True, np.diff(period[firsts]) != 0)]
    ends = np.append(starts[1:], n)[period[firsts]]
    for i0, p1 in zip(firsts.tolist(), ends.tolist()):
        p0 = int(starts[period[i0]])
        _serve_long_period(
            ready[p0:p1], service[p0:p1], done[p0:p1], accepted[p0:p1],
            queue_capacity, i0 - p0,
        )
    return TailDropResult(done[accepted], accepted)
