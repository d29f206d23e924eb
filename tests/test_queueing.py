"""Unit, property and differential tests for the FIFO service primitives."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.experiments.scenarios import scenario
from repro.net import fifo_departures, fifo_tail_drop
from repro.obs import metrics
from repro.testbeds.base import Testbed

from .conftest import suite_rng


def scalar_tail_drop(ready, service, queue_capacity):
    """The sequential definition of tail drop: the differential oracle.

    Each arrival first retires every accepted packet whose completion is
    at or before it, is dropped if ``queue_capacity`` packets remain, and
    is otherwise served after the previous accepted packet.
    """
    ready = np.asarray(ready, dtype=np.float64)
    service = np.asarray(service, dtype=np.float64)
    accepted = np.zeros(ready.size, dtype=bool)
    done = []
    in_system: deque[float] = deque()
    last_done = -np.inf
    for i, (t, s) in enumerate(zip(ready.tolist(), service.tolist())):
        while in_system and in_system[0] <= t:
            in_system.popleft()
        if len(in_system) >= queue_capacity:
            continue
        start = t if t > last_done else last_done
        last_done = start + s
        in_system.append(last_done)
        accepted[i] = True
        done.append(last_done)
    return np.asarray(done, dtype=np.float64), accepted


def assert_matches_oracle(ready, service, capacity):
    """``fifo_tail_drop`` equals the scalar oracle bit for bit."""
    want_done, want_acc = scalar_tail_drop(ready, service, capacity)
    got = fifo_tail_drop(ready, service, capacity)
    np.testing.assert_array_equal(got.accepted, want_acc)
    assert got.done_ns.dtype == np.float64
    assert got.done_ns.tobytes() == want_done.tobytes()
    return got


def reference_fifo(ready, service):
    """The textbook sequential recurrence, for cross-validation."""
    done = np.empty_like(ready)
    last = -np.inf
    for i in range(ready.shape[0]):
        start = max(ready[i], last)
        last = start + service[i]
        done[i] = last
    return done


class TestFifoDepartures:
    def test_empty(self):
        assert fifo_departures(np.array([]), np.array([])).shape == (0,)

    def test_no_queueing(self):
        ready = np.array([0.0, 100.0, 200.0])
        svc = np.array([10.0, 10.0, 10.0])
        np.testing.assert_allclose(fifo_departures(ready, svc), [10.0, 110.0, 210.0])

    def test_back_to_back(self):
        ready = np.zeros(4)
        svc = np.full(4, 10.0)
        np.testing.assert_allclose(fifo_departures(ready, svc), [10, 20, 30, 40])

    def test_matches_reference(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 200))
            ready = np.sort(rng.uniform(0, 1000, n))
            svc = rng.uniform(0, 20, n)
            np.testing.assert_allclose(
                fifo_departures(ready, svc), reference_fifo(ready, svc), rtol=1e-12
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fifo_departures(np.zeros(3), np.zeros(2))

    @given(
        hnp.arrays(np.float64, st.integers(1, 100),
                   elements=st.floats(0, 1e6, allow_nan=False)).map(np.sort),
        st.floats(0.0, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_reference(self, ready, svc_scalar):
        svc = np.full(ready.shape[0], svc_scalar)
        got = fifo_departures(ready, svc)
        np.testing.assert_allclose(got, reference_fifo(ready, svc), rtol=1e-9)
        # Output is non-decreasing and every packet departs after arrival.
        assert np.all(np.diff(got) >= -1e-9)
        assert np.all(got >= ready + svc - 1e-9)


class TestTailDrop:
    def test_no_drops_under_capacity(self):
        ready = np.arange(10) * 100.0
        svc = np.full(10, 10.0)
        r = fifo_tail_drop(ready, svc, queue_capacity=4)
        assert r.n_dropped == 0
        np.testing.assert_allclose(r.done_ns, fifo_departures(ready, svc))

    def test_burst_overflow_drops_tail(self):
        # 100 simultaneous arrivals into an 8-deep queue: 8 accepted.
        r = fifo_tail_drop(np.zeros(100), np.full(100, 10.0), queue_capacity=8)
        assert r.accepted.sum() == 8
        assert r.n_dropped == 92
        np.testing.assert_array_equal(np.flatnonzero(r.accepted), np.arange(8))

    def test_queue_drains_and_reaccepts(self):
        # Two bursts separated by enough time to drain the queue.
        ready = np.concatenate([np.zeros(4), np.full(4, 1000.0)])
        svc = np.full(8, 10.0)
        r = fifo_tail_drop(ready, svc, queue_capacity=2)
        # 2 of each burst accepted.
        assert r.accepted.sum() == 4

    def test_capacity_one_is_strictest(self):
        ready = np.array([0.0, 1.0, 50.0])
        svc = np.full(3, 10.0)
        r = fifo_tail_drop(ready, svc, queue_capacity=1)
        # Packet 1 arrives while packet 0 is in service -> dropped.
        np.testing.assert_array_equal(r.accepted, [True, False, True])

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            fifo_tail_drop(np.zeros(1), np.zeros(1), queue_capacity=0)

    @given(
        hnp.arrays(np.float64, st.integers(1, 120),
                   elements=st.floats(0, 1e4, allow_nan=False)).map(np.sort),
        st.integers(1, 16),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_accepted_subset_served_in_order(self, ready, cap):
        svc = np.full(ready.shape[0], 25.0)
        r = fifo_tail_drop(ready, svc, queue_capacity=cap)
        assert r.done_ns.shape[0] == int(r.accepted.sum())
        assert np.all(np.diff(r.done_ns) >= -1e-9)
        # Accepted packets obey the plain FIFO law among themselves.
        kept_ready = ready[r.accepted]
        kept_svc = svc[r.accepted]
        np.testing.assert_allclose(
            r.done_ns, fifo_departures(kept_ready, kept_svc), rtol=1e-9
        )

    def test_rejects_unsorted_ready_and_negative_service(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            fifo_tail_drop(np.array([1.0, 0.0]), np.ones(2), queue_capacity=1)
        with pytest.raises(ValueError, match="non-negative"):
            fifo_tail_drop(np.zeros(2), np.array([1.0, -1.0]), queue_capacity=1)

    def test_empty(self):
        r = fifo_tail_drop(np.array([]), np.array([]), queue_capacity=3)
        assert r.done_ns.shape == (0,) and r.accepted.shape == (0,)


GRID_KINDS = ["uniform", "integer", "equal_ready", "lands_on_next"]


def _grid_case(rng, kind, n):
    """One random (ready, service) pair of a near-tie family."""
    if kind == "uniform":
        return np.sort(rng.uniform(0, 50.0 * n, n)), rng.uniform(0, 100, n)
    if kind == "integer":
        # Integer-rounded times and services: exact ties everywhere.
        ready = np.sort(rng.integers(0, 20 * n, n)).astype(float)
        return ready, rng.integers(0, 40, n).astype(float)
    if kind == "equal_ready":
        # Bursts of arrivals at one instant.
        ready = np.repeat(np.sort(rng.uniform(0, 30.0 * n, n // 8 + 1)), 8)[:n]
        return ready, rng.uniform(1, 30, n)
    if kind == "lands_on_next":
        # Service that ends exactly on (or an ulp around) the next
        # arrival: back-to-back line-rate trains with fractional steps.
        step = rng.choice([0.1, 0.2, 0.3, 0.7, 112.0, 120.0], n)
        ready = 1e9 + np.cumsum(step)
        service = np.where(rng.random(n) < 0.7, np.roll(step, -1), step)
        return ready, service
    raise AssertionError(kind)


class TestTailDropDifferential:
    """The vectorized ``fifo_tail_drop`` against the scalar oracle."""

    @pytest.mark.parametrize("kind", GRID_KINDS)
    @pytest.mark.parametrize("capacity", [1, 2, 3, 16, 64])
    def test_random_grid(self, kind, capacity):
        rng = suite_rng(100 + 100 * GRID_KINDS.index(kind) + capacity)
        for n in (1, 2, capacity, capacity + 1, 97, 600):
            ready, service = _grid_case(rng, kind, n)
            assert_matches_oracle(ready, service, capacity)

    def test_long_contended_periods(self):
        # Load > 1 for long stretches, so periods run far beyond the
        # capacity, drop in bursts and drain inside a decision window.
        rng = suite_rng(41)
        for capacity in (1, 2, 5, 32, 128):
            n = 4000
            heavy = (np.arange(n) // 400) % 2 == 0
            gaps = rng.exponential(1.0, n) * np.where(heavy, 0.5, 3.0)
            ready = np.cumsum(gaps)
            service = rng.choice([0.8, 1.1, 1.3], n)
            got = assert_matches_oracle(ready, service, capacity)
            assert got.n_dropped > 0

    def test_near_tie_resumes_and_counts_a_round(self):
        # The closed form rounds the third completion an ulp low, so it
        # proposes a new busy period at the last arrival; the exact sums
        # refute it and the pass resumes there.
        ready = [0.7, 1.4, 1.5999999999999999, 1.7999999999999998]
        service = [0.3, 0.3, 0.1, 0.3]
        rounds = metrics.counter("queue.tail_drop_rounds")
        before = rounds.value
        got = assert_matches_oracle(ready, service, 100)
        assert rounds.value - before == 1
        assert got.done_ns[-1] == 2.1

    def test_exact_ties_need_no_extra_round(self):
        # Equal completion/arrival pairs are value-neutral: either busy-
        # period choice gives the same sum, so no round is spent on them.
        ready = np.arange(1000) * 112.0
        service = np.full(1000, 112.0)
        rounds = metrics.counter("queue.tail_drop_rounds")
        before = rounds.value
        assert_matches_oracle(ready, service, 4)
        assert rounds.value == before

    @given(
        hnp.arrays(np.float64, st.integers(1, 150),
                   elements=st.floats(0, 500, allow_nan=False)).map(np.sort),
        hnp.arrays(np.float64, 150,
                   elements=st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5, 7.0])),
        st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_oracle(self, ready, service, capacity):
        assert_matches_oracle(ready, service[: ready.size], capacity)


class TestNoisySharedPort:
    """The noisy scenario's shared port, vectorized vs the scalar oracle."""

    def test_traverse_matches_scalar_oracle(self, monkeypatch):
        import repro.net.sriov as sriov

        calls = []

        def recording(ready, service, capacity):
            calls.append((ready, service, capacity))
            return fifo_tail_drop(ready, service, capacity)

        profile = scenario("fabric-shared-40g-noisy").profile(0.01)
        monkeypatch.setattr(sriov, "fifo_tail_drop", recording)
        fast = Testbed(profile, seed=3).run_series(2)

        def oracle(ready, service, capacity):
            from repro.net.queueing import TailDropResult

            return TailDropResult(*scalar_tail_drop(ready, service, capacity))

        monkeypatch.setattr(sriov, "fifo_tail_drop", oracle)
        slow = Testbed(profile, seed=3).run_series(2)

        assert len(calls) == 2
        assert sum(t.meta["n_dropped"] for t in fast) > 0
        for a, b in zip(fast, slow):
            assert a.meta["n_dropped"] == b.meta["n_dropped"]
            np.testing.assert_array_equal(a.tags, b.tags)
            assert a.times_ns.tobytes() == b.times_ns.tobytes()
        for ready, service, capacity in calls:
            assert_matches_oracle(ready, service, capacity)
