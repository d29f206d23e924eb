"""End-to-end benchmark of the ``repro`` CLI, with per-layer attribution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, at most two worker processes):

* ``table2``        ``repro table2 --jobs 1``: nine environments simulated
  and analysed serially, no store.  Always the registered seeds, so the
  rows are checked against ``reference.json``.
* ``sweep-jobs2``   ``repro sweep --seeds N --jobs 2`` into an empty store
  (cold), then the same command on that store (warm).
* ``analyze-jobs2`` ``repro analyze --jobs 2`` on local-dual captures at
  paper scale (3 runs of ~1.05M packets, made in untimed set-up).
* ``monitor``       the ``repro monitor`` loop over the same captures,
  driven through the public streaming API so every chunk is timed.

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics as medians over the repetitions; the two capture
workloads first run one untimed warm-up repetition.
``--trace 1`` runs it once plainly and once with the
span wrappers of ``layers.py`` and reports the per-layer metrics.  The
last line of standard output is the JSON result; the lines before it are
the same numbers for a reader, with units and sample counts.  See
``NOTES.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = [sys.executable, os.path.join(HERE, "child.py")]
#: Scratch of every run (captures, stores, traces); removed when it ends.
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

#: One run must end within 180 s; every process gets what is left of this.
RUN_BUDGET_S = 170.0
#: Setup probes per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: How long pool processes may outlive the CLI before they are killed.
ORPHAN_GRACE_S = 10.0

PR_SET_CHILD_SUBREAPER = 36


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failure of the program)."""


@dataclass
class Proc:
    """One finished child process: wall time, peak RSS of its tree, exit."""

    wall_s: float
    peak_rss_mb: float
    code: int
    err: str


class Bench:
    """Work directory, child environment and process accounting of a run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.t_start = time.monotonic()
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"seed{seed}-", dir=WORK_ROOT)
        tmp = os.path.join(self.work, "tmp")
        os.mkdir(tmp)
        self.env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        self.env.update(PYTHONPATH=SRC, TMPDIR=tmp)
        self.failures: list[str] = []

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    def spawn(self, argv: list[str], stdout: str) -> Proc:
        """Run ``argv`` to completion and reap every process it left behind.

        The benchmark is a child subreaper, so pool workers and the
        forkserver re-parent to it when the CLI exits; ``wait4`` on each
        gives its ``ru_maxrss``, and the largest is the tree's peak RSS.
        """
        remaining = RUN_BUDGET_S - (time.monotonic() - self.t_start)
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        err_path = stdout + ".err"
        t0 = time.monotonic()
        with open(stdout, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=ROOT,
                start_new_session=True,
            )
        killed = []

        def kill() -> None:
            killed.append(True)
            _killpg(proc.pid)

        timer = threading.Timer(remaining, kill)
        timer.daemon = True
        timer.start()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
        timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        peak_kb = max(ru.ru_maxrss, _reap_tree(proc.pid))
        with open(err_path, errors="replace") as f:
            tail = f.read()[-2000:]
        if killed:
            code, tail = -9, f"killed after {remaining:.0f} s\n" + tail
        return Proc(wall, peak_kb / 1024.0, code, tail)

    def probe_setup(self, jobs: int, n: int) -> tuple[list[float], dict]:
        """``setup_s`` samples: launch until the CLI (and pool) can work."""
        samples, host = [], {}
        argv = CHILD + ["probe"] + (["--jobs", str(jobs)] if jobs > 1 else [])
        for k in range(n):
            out = self.path(f"probe{k}.json")
            t0 = time.monotonic()
            proc = self.spawn(argv, out)
            if proc.code != 0:
                raise BenchError(f"setup probe failed:\n{proc.err}")
            with open(out) as f:
                doc = json.loads(f.read().splitlines()[-1])
            samples.append(doc["ready"] - t0)
            host = doc["host"]
        return samples, host


def _killpg(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_tree(pgid: int) -> int:
    """Wait for every re-parented descendant; largest ``ru_maxrss`` in KB."""
    peak = 0
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            pid, status, ru = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            return peak
        if pid:
            peak = max(peak, ru.ru_maxrss)
            continue
        if time.monotonic() > deadline:
            _killpg(pgid)
            deadline = time.monotonic() + ORPHAN_GRACE_S
        time.sleep(0.005)


# -- workloads -------------------------------------------------------------

@dataclass
class Iteration:
    """One closed-loop repetition of a workload."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    warm_s: float | None = None
    chunk_ms: list[float] = field(default_factory=list)
    layer_docs: list[str] = field(default_factory=list)
    traced_wall_s: float = 0.0

    def units(self, expected: dict, got: dict) -> None:
        """Count units: each expected key must be present and equal."""
        self.attempted += len(expected)
        self.failed += sum(1 for k, v in expected.items() if got.get(k) != v)


def _rows_by(rows: list[dict], key: str) -> dict:
    return {r[key]: r for r in rows}


def _read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


class Workload:
    name = ""
    jobs = 1
    #: Run one repetition before the timed ones and keep it out of the
    #: timings (its outputs are still checked).
    warmup = False

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.pkts = 0
        self.n = 0

    def setup(self) -> None:
        """Untimed preparation of inputs and reference outputs."""

    def iteration(self, traced: bool) -> Iteration:
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed bookkeeping after the last repetition."""

    def _tag(self, traced: bool) -> str:
        self.n += 1
        return f"{'t' if traced else 'u'}{self.n}"

    def _cli(self, argv: list[str], traced: bool, tag: str, rows: bool = False):
        """Run ``repro ARGV`` (through ``child.py cli``); returns (proc, rows, layers)."""
        cmd = CHILD + ["cli"]
        layers = self.bench.path(f"{tag}.layers.json") if traced else None
        rows_path = self.bench.path(f"{tag}.rows.json") if rows else None
        if layers:
            cmd += ["--layers", layers]
        if rows_path:
            cmd += ["--rows", rows_path]
        proc = self.bench.spawn(cmd + ["--"] + argv, self.bench.path(f"{tag}.out"))
        if proc.code != 0:
            self.bench.failures.append(f"{' '.join(argv)} exited {proc.code}:\n{proc.err}")
        kept = _load_json(rows_path) if rows_path and proc.code == 0 else None
        return proc, kept, layers


class Table2(Workload):
    name = "table2"

    def setup(self) -> None:
        with open(os.path.join(HERE, "reference.json")) as f:
            ref = json.load(f)["table2"]
        self.argv = ref["argv"]
        self.expected = _rows_by(ref["rows"], "environment")
        self.pkts = ref["pkts"]

    def iteration(self, traced: bool) -> Iteration:
        it = Iteration()
        proc, kept, layers = self._cli(self.argv, traced, self._tag(traced), rows=True)
        it.wall_s, it.peak_rss_mb = proc.wall_s, proc.peak_rss_mb
        it.units(self.expected, _rows_by(kept[0], "environment") if kept else {})
        if layers:
            it.layer_docs, it.traced_wall_s = [layers], proc.wall_s
        return it


class SweepJobs2(Workload):
    name = "sweep-jobs2"
    jobs = 2

    def setup(self) -> None:
        # One unit per registered environment: the ones table2 reports.
        with open(os.path.join(HERE, "reference.json")) as f:
            self.scenarios = [r["environment"] for r in json.load(f)["table2"]["rows"]]
        self.counted_store: str | None = None

    def iteration(self, traced: bool) -> Iteration:
        it = Iteration()
        tag = self._tag(traced)
        store = self.bench.path(f"{tag}.store")
        argv = ["sweep", "--seeds", str(self.bench.seed), "--jobs", "2", "--store", store]
        procs, docs, outcomes = [], [], []
        for phase in ("cold", "warm"):
            out = self.bench.path(f"{tag}.{phase}")
            proc, _, layers = self._cli(argv + ["-o", out], traced, f"{tag}.{phase}")
            procs.append(proc)
            if layers:
                it.layer_docs.append(layers)
            report = self.bench.path(f"{tag}.{phase}", "sweep.json")
            docs.append(_read_bytes(report))
            outcomes.append(_sweep_outcomes(self.bench.path(f"{tag}.{phase}.out")))
        if self.counted_store is None and procs[0].code == 0:
            # Counted in finish(), so that the count neither adds to this
            # repetition's time nor cuts the number of repetitions.
            self.counted_store = store
        else:
            shutil.rmtree(store, ignore_errors=True)
        it.wall_s, it.warm_s = procs[0].wall_s, procs[1].wall_s
        it.peak_rss_mb = max(p.peak_rss_mb for p in procs)
        if traced:
            it.traced_wall_s = sum(p.wall_s for p in procs)
        # A unit passes when it is in both reports, the warm report is
        # byte-identical to the cold one, the cold outcome was a miss in
        # the empty store and the warm outcome a hit.
        cold, warm = outcomes
        same = docs[0] is not None and docs[0] == docs[1]
        it.units(
            {k: ("miss", "hit", True) for k in self.scenarios},
            {k: (cold.get(k), warm.get(k), same) for k in self.scenarios},
        )
        return it

    def finish(self) -> None:
        if self.counted_store:
            self.pkts = _store_pkts(self.bench, self.counted_store, "count")
            shutil.rmtree(self.counted_store, ignore_errors=True)


def _sweep_outcomes(stdout: str) -> dict:
    """``scenario -> cache outcome`` from the sweep summary table."""
    try:
        with open(stdout) as f:
            lines = f.read().splitlines()
    except OSError:
        return {}
    rows = {}
    body = False
    for line in lines:
        if line.startswith("---"):
            body = True
        elif body and line.strip():
            cells = line.split()
            rows[cells[0]] = cells[-1]
    return rows


def _store_pkts(bench: Bench, store: str, tag: str) -> int:
    """Packets in every capture a sweep stored (read after the timed part)."""
    out = bench.path(f"{tag}.pkts")
    code = (
        "import sys\n"
        "from repro.sweep import ArtifactStore\n"
        "s = ArtifactStore(sys.argv[1])\n"
        "print(sum(len(t) for d in s.entries() for t in s.get(d).trials))\n"
    )
    proc = bench.spawn([sys.executable, "-c", code, store], out)
    if proc.code != 0:
        bench.failures.append(f"reading the sweep's store failed:\n{proc.err}")
        return 0
    with open(out) as f:
        return int(f.read().split()[-1])


class Captures(Workload):
    """Shared set-up of the workloads that read local-dual captures.

    The first repetition after the capture set-up was measured slower
    than the ones after it, so it is a warm-up.
    """

    warmup = True

    def setup(self) -> None:
        self.captures = self.bench.path("captures")
        ref = self.bench.path("reference.json")
        proc = self.bench.spawn(
            CHILD + ["captures", self.captures, str(self.bench.seed), ref],
            self.bench.path("captures.out"),
        )
        if proc.code != 0:
            raise BenchError(f"capture set-up failed:\n{proc.err}")
        with open(ref) as f:
            doc = json.load(f)
        self.pkts = doc["pkts"]
        self.expected = _rows_by(doc["rows"], "run")


class AnalyzeJobs2(Captures):
    name = "analyze-jobs2"
    jobs = 2

    def iteration(self, traced: bool) -> Iteration:
        it = Iteration()
        tag = self._tag(traced)
        argv = ["analyze", self.captures, "--jobs", "2"]
        if traced:
            # The program's own trace is the only view into the workers.
            argv += ["--trace", self.bench.path(f"{tag}.trace.json")]
        proc, kept, layers = self._cli(argv, traced, tag, rows=True)
        it.wall_s, it.peak_rss_mb = proc.wall_s, proc.peak_rss_mb
        it.units(self.expected, _rows_by(kept[0], "run") if kept else {})
        if layers:
            it.layer_docs, it.traced_wall_s = [layers], proc.wall_s
        return it


class Monitor(Captures):
    name = "monitor"

    def iteration(self, traced: bool) -> Iteration:
        it = Iteration()
        tag = self._tag(traced)
        out = self.bench.path(f"{tag}.monitor.json")
        cmd = CHILD + ["monitor", self.captures, out]
        layers = self.bench.path(f"{tag}.layers.json") if traced else None
        if layers:
            cmd += ["--layers", layers]
        proc = self.bench.spawn(cmd, self.bench.path(f"{tag}.out"))
        it.wall_s, it.peak_rss_mb = proc.wall_s, proc.peak_rss_mb
        doc = _load_json(out) if proc.code == 0 else None
        if doc is None:
            self.bench.failures.append(f"monitor exited {proc.code}:\n{proc.err}")
        it.units(self.expected, _rows_by(doc["rows"], "run") if doc else {})
        if doc:
            it.chunk_ms = [ns / 1e6 for ns in doc["chunk_ns"]]
        if layers:
            it.layer_docs, it.traced_wall_s = [layers], proc.wall_s
        return it


WORKLOADS = {w.name: w for w in (Table2, SweepJobs2, AnalyzeJobs2, Monitor)}


# -- metrics ---------------------------------------------------------------

def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(wl: Workload, its: list[Iteration], setup: list[float]) -> tuple[dict, dict]:
    """Gated end-to-end metrics, plus the workload-specific ones (ungated)."""
    walls = [it.wall_s for it in its]
    wall = statistics.median(walls)
    gated = {
        "wall_s": (wall, "s", len(walls)),
        "pkts_per_s": (wl.pkts / wall, "pkt/s", len(walls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (statistics.median(it.peak_rss_mb for it in its), "MB", len(its)),
    }
    attempted = sum(it.attempted for it in its)
    extra = {"error_rate": (sum(it.failed for it in its) / max(attempted, 1), "ratio", attempted)}
    warm = [it.warm_s for it in its if it.warm_s is not None]
    if warm:
        extra["warm_s"] = (statistics.median(warm), "s", len(warm))
    chunks = [c for it in its for c in it.chunk_ms]
    if chunks:
        extra["chunk_ms_p50"] = (_quantile(chunks, 50), "ms", len(chunks))
        extra["chunk_ms_p99"] = (_quantile(chunks, 99), "ms", len(chunks))
    return gated, extra


#: (metric, unit, source) of every per-layer metric, in BENCHMARK.json order.
#: A source ``self:L`` is the self time of layer L; ``count:C`` a count.
PER_LAYER = [
    ("core.order_s", "s", "self:core.order"),
    ("core.order.pkts", "count", "count:core.order.pkts"),
    ("core.match_s", "s", "self:core.match"),
    ("core.timings_s", "s", "self:core.timings"),
    ("core.compare_self_s", "s", "self:core.compare"),
    ("core.pairs", "count", "count:core.pairs"),
    ("net.sriov_s", "s", "self:net.sriov"),
    ("net.sriov.dropped_pkts", "count", "count:net.sriov.dropped_pkts"),
    ("net.switch_s", "s", "self:net.switch"),
    ("net.link_s", "s", "self:net.link"),
    ("replay.record_s", "s", "self:replay.record"),
    ("replay.replay_s", "s", "self:replay.replay"),
    ("timing.stamp_s", "s", "self:timing.stamp"),
    ("generators.generate_s", "s", "self:generators.generate"),
    ("core.trial_build_s", "s", "self:core.trial_build"),
    ("testbeds.simulate_self_s", "s", "self:testbeds.simulate"),
    ("testbeds.runs", "count", "count:testbeds.runs"),
    ("experiments.simulate_s", "s", "self:experiments.simulate"),
    ("experiments.analyze_s", "s", "self:experiments.analyze"),
    ("analysis.load_s", "s", "self:analysis.load"),
    ("analysis.stream_update_s", "s", "self:analysis.stream_update"),
    ("analysis.stream_result_s", "s", "self:analysis.stream_result"),
    ("analysis.monitor_feed_s", "s", "self:analysis.monitor_feed"),
    ("analysis.monitor_windows", "count", "count:analysis.monitor_windows"),
    ("analysis.pair_whole_s", "s", "derived"),
    ("parallel.pool_start_s", "s", "self:parallel.pool_start"),
    ("parallel.pool_stop_s", "s", "self:parallel.pool_stop"),
    ("parallel.submit_s", "s", "self:parallel.submit"),
    ("parallel.wait_s", "s", "self:parallel.wait"),
    ("parallel.tasks", "count", "count:parallel.tasks"),
    ("parallel.utilization", "ratio", "derived"),
    ("parallel.queue_wait_ms_p50", "ms", "derived"),
    ("sweep.store_get_s", "s", "self:sweep.store_get"),
    ("sweep.store.bytes_read", "bytes", "derived"),
    ("sweep.store.hit_ratio", "ratio", "derived"),
    ("sweep.store_put_s", "s", "self:sweep.store_put"),
    ("sweep.store.bytes_written", "bytes", "derived"),
    ("sweep.store.misses", "count", "count:sweep.store.misses"),
    ("unattributed_s", "s", "derived"),
    ("obs.overhead_s", "s", "derived"),
    ("obs.traced_wall_s", "s", "derived"),
    ("obs.untraced_wall_s", "s", "derived"),
]


def per_layer(plain: Iteration, traced: Iteration) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced iteration, and the ones not observed."""
    import layers

    # A traced process that crashed left no dump; its units count as failed.
    docs = [d for d in map(_load_json, traced.layer_docs) if d is not None]
    sums = [layers.summarize(d) for d in docs]
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for s in sums:
        for k, v in s["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
    busy = sum(s["worker_cpu_s"] for s in sums)
    capacity = sum(s["n_workers"] * s["compute_wall_s"] for s in sums)
    waits = [s["queue_wait_ns_p50"] for s in sums if s["queue_wait_ns_p50"] is not None]
    gets = counts.get("sweep.store.gets", 0)
    untraced_wall = plain.wall_s + (plain.warm_s or 0.0)
    derived = {
        "analysis.pair_whole_s": sum(
            s["program_worker_s"].get("analysis.pair.whole", 0.0) for s in sums
        ),
        "parallel.utilization": busy / capacity if capacity else 0.0,
        "parallel.queue_wait_ms_p50": waits[0] / 1e6 if waits else 0.0,
        "sweep.store.bytes_read": sum(s["store_bytes_read"] for s in sums),
        "sweep.store.hit_ratio": counts.get("sweep.store.hits", 0) / gets if gets else 0.0,
        "sweep.store.bytes_written": sum(s["store_bytes_written"] for s in sums),
        "unattributed_s": traced.traced_wall_s - sum(s["top_level_s"] for s in sums),
        "obs.overhead_s": traced.traced_wall_s - untraced_wall,
        "obs.traced_wall_s": traced.traced_wall_s,
        "obs.untraced_wall_s": untraced_wall,
    }
    out = {}
    for name, unit, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "self":
            value = self_s.get(key, 0.0)
        elif kind == "count":
            value = counts.get(key, 0)
        else:
            value = derived[name]
        out[name] = (value, unit, len(sums))
    not_observed = []
    if capacity and not waits:
        # Pool work ran, but the program's --trace (the only source of the
        # queue-wait histogram) could not be used for this command.
        not_observed.append("parallel.queue_wait_ms_p50")
    return out, not_observed


# -- driver ----------------------------------------------------------------

def _check_declared(metrics: dict, section: str) -> None:
    """The result must carry exactly the metrics ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [m["name"] for m in json.load(f)[section]]
    if sorted(declared) != sorted(metrics):
        raise BenchError(
            f"{section} of BENCHMARK.json {sorted(declared)} does not match "
            f"the metrics measured {sorted(metrics)}"
        )


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit:6s} n={n}")


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing")
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchError("cannot become a child subreaper (Linux only)")
    import compileall

    # The build: byte-compile once, outside every timed region.
    if not compileall.compile_dir(SRC, quiet=1):
        raise BenchError("byte-compiling src/ failed")

    bench = Bench(args.seed)
    try:
        wl = WORKLOADS[args.workload](bench)
        wl.setup()
        if args.trace:
            _, host = bench.probe_setup(wl.jobs, 1)
            warm = [wl.iteration(traced=False)] if wl.warmup else []
            plain = wl.iteration(traced=False)
            traced = wl.iteration(traced=True)
            its = [plain, traced]
            wl.finish()
            metrics, not_observed = per_layer(plain, traced)
            _print_table(f"{wl.name}: per-layer metrics (traced run)", metrics)
            extra = {}
        else:
            setup, host = bench.probe_setup(wl.jobs, SETUP_PROBES)
            warm = [wl.iteration(traced=False)] if wl.warmup else []
            its = []
            t0 = time.monotonic()
            while True:
                t_it = time.monotonic()
                its.append(wl.iteration(traced=False))
                now = time.monotonic()
                # Stop when one more iteration would overrun --seconds.
                if now - t0 + (now - t_it) > args.seconds:
                    break
            wl.finish()
            metrics, extra = end_to_end(wl, its, setup)
            not_observed = []
            _print_table(f"{wl.name}: end-to-end metrics", metrics)
            _print_table(f"{wl.name}: workload-specific metrics (not gated)", extra)
        attempted = sum(it.attempted for it in warm + its)
        failed = sum(it.failed for it in warm + its)
        for msg in bench.failures:
            print(f"failure: {msg}", file=sys.stderr)
        detail = {
            "workload": wl.name,
            "seed": args.seed,
            "input_pkts": wl.pkts,
            "iterations": len(its),
            "host": host,
            "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in {**metrics, **extra}.items()},
            "warmup_wall_s": [it.wall_s for it in warm],
            "untraced_wall_s": [it.wall_s for it in its if not it.layer_docs],
            "traced_wall_s": [it.traced_wall_s for it in its if it.layer_docs],
            "not_observed": not_observed,
        }
        _check_declared(metrics, "per_layer" if args.trace else "end_to_end")
        print("detail " + json.dumps(detail, sort_keys=True))
        return {
            "correct": failed == 0 and not bench.failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }
    finally:
        bench.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
