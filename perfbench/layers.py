"""Per-layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`install` wraps the public entry points of each layer of the
``repro`` package.  A module-level function is replaced in *every* loaded
``repro`` module that binds it, so a caller that did
``from .matching import match_trials`` sees the wrapper too; a method is
replaced on its class.  Every call records one span (name, start, end,
parent) in memory; :meth:`Recorder.dump` writes them once, when the run
ends, together with the counts taken at the same boundaries.

:func:`summarize` turns a dumped file into the per-layer metrics: the
self time of a layer is the sum over its spans of the span's duration
minus the part its wrapped child spans cover.

Work that runs in pool workers is invisible to these wrappers; the
benchmark reads the program's own ``--trace`` export for it instead
(see ``run.py``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
import threading
import time
from concurrent import futures as _futures

#: (layer, module, qualified name) of every wrapped entry point.  ``*`` as
#: the class name wraps the method on every class of the module (and of
#: its package's modules) that defines it.
TARGETS = [
    ("core.order", "repro.core.ordering", "edit_script"),
    ("core.match", "repro.core.matching", "match_trials"),
    ("core.timings", "repro.core.fusedpass", "fused_timings"),
    ("core.compare", "repro.core.report", "compare_trials"),
    ("core.trial_build", "repro.core.trial", "Trial.from_arrival_events"),
    ("net.sriov", "repro.net.sriov", "SharedPort.traverse"),
    ("net.switch", "repro.net.switch", "SwitchModel.forward_merged"),
    ("net.link", "repro.net.link", "Link.traverse"),
    ("replay.record", "repro.replay.choir", "ChoirNode.record"),
    ("replay.replay", "repro.replay.choir", "ChoirNode.replay"),
    ("timing.stamp", "repro.timing", "*.stamp"),
    ("generators.generate", "repro.generators", "*.generate"),
    ("testbeds.simulate", "repro.testbeds.base", "simulate_run"),
    ("experiments.simulate", "repro.testbeds.base", "Testbed.run_series"),
    ("experiments.analyze", "repro.experiments.runner", "analyze_trials"),
    ("analysis.load", "repro.analysis.compare", "load_series"),
    ("analysis.stream_update", "repro.analysis.streamkappa", "StreamKappa.update"),
    ("analysis.stream_result", "repro.analysis.streamkappa", "StreamKappa.result"),
    ("analysis.monitor_feed", "repro.analysis.streamkappa", "KappaMonitor.feed_baseline"),
    ("analysis.monitor_feed", "repro.analysis.streamkappa", "KappaMonitor.feed_run"),
    ("analysis.monitor_feed", "repro.analysis.streamkappa", "KappaMonitor.finish"),
    ("parallel.pool_start", "repro.parallel.pool", "get_pool"),
    ("parallel.pool_stop", "repro.parallel.pool", "shutdown_pool"),
    ("parallel.submit", "repro.parallel.pool", "submit_task"),
    ("parallel.submit", "repro.parallel.pool", "submit_batch"),
    ("parallel.wait", "repro.parallel.pool", "gather"),
    ("sweep.store_get", "repro.sweep.store", "ArtifactStore.get"),
    ("sweep.store_put", "repro.sweep.store", "ArtifactStore.put"),
]

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _tree_bytes(directory: str) -> int:
    """Bytes of the regular files under ``directory``."""
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


class Recorder:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index, child_ns]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.store_reads: list[str] = []
        self.store_writes: list[str] = []
        self.worker_cpu_s: dict[int, float] = {}
        self._local = threading.local()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, 0])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[2] = time.perf_counter_ns()
        self._stack().pop()
        if rec[3] >= 0:
            self.spans[rec[3]][4] += rec[2] - rec[1]

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as a span of layer ``name``; ``after(result, args,
        kwargs)`` records the layer's counts outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def wrap_iter(self, name: str, fn):
        """A generator function whose every ``next`` is a span of ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                yield item

        return wrapper

    def dump(self, path: str, extra: dict | None = None) -> None:
        doc = {
            "spans": self.spans,
            "counts": self.counts,
            "store_bytes_read": sum(map(_tree_bytes, self.store_reads)),
            "store_bytes_written": sum(map(_tree_bytes, self.store_writes)),
            "worker_cpu_s": self.worker_cpu_s,
        }
        doc.update(extra or {})
        with open(path, "w") as f:
            json.dump(doc, f)


def _import_all() -> None:
    """Import every ``repro`` module, so each binding can be rewritten."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module's binding of ``original`` at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _classes_defining(package: str, method: str) -> list[type]:
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for value in vars(mod).values():
            if (
                isinstance(value, type)
                and value.__module__ == name
                and method in vars(value)
                and value not in found
            ):
                found.append(value)
    return found


def _patch_method(rec: Recorder, layer: str, cls: type, method: str, after) -> None:
    raw = vars(cls)[method]
    if isinstance(raw, classmethod):
        setattr(cls, method, classmethod(rec.wrap(layer, raw.__func__, after)))
    else:
        setattr(cls, method, rec.wrap(layer, raw, after))


def _after_hooks(rec: Recorder) -> dict:
    """Counts recorded at the layer boundaries, keyed by layer (or, where
    one layer wraps several calls that count differently, by call)."""

    def order(result, args, kwargs):
        rec.count("core.order.pkts", result.matching.n_common)

    def compare(result, args, kwargs):
        rec.count("core.pairs")

    def sriov(result, args, kwargs):
        rec.count("net.sriov.dropped_pkts", result.n_dropped)

    def simulate(result, args, kwargs):
        rec.count("testbeds.runs")

    def monitor(result, args, kwargs):
        rec.count("analysis.monitor_windows", len(result))

    def submit_task(result, args, kwargs):
        rec.count("parallel.tasks")

    def submit_batch(result, args, kwargs):
        rec.count("parallel.tasks", len(args[2] if len(args) > 2 else kwargs["tasks"]))

    def store_get(result, args, kwargs):
        rec.count("sweep.store.gets")
        if result is not None and result.report is not None:
            rec.count("sweep.store.hits")
            rec.store_reads.append(str(args[0].entry_dir(args[1])))
        else:
            rec.count("sweep.store.misses")

    def store_put(result, args, kwargs):
        rec.store_writes.append(str(args[0].entry_dir(args[1])))

    return {
        "core.order": order,
        "core.compare": compare,
        "net.sriov": sriov,
        "testbeds.simulate": simulate,
        "analysis.monitor_feed": monitor,
        "submit_task": submit_task,
        "submit_batch": submit_batch,
        "sweep.store_get": store_get,
        "sweep.store_put": store_put,
    }


def install() -> Recorder:
    """Wrap every target in :data:`TARGETS`; returns the live recorder."""
    _import_all()
    rec = Recorder()
    hooks = _after_hooks(rec)
    for layer, module, qualname in TARGETS:
        after = hooks.get(qualname, hooks.get(layer))
        if "." not in qualname:
            original = getattr(importlib.import_module(module), qualname)
            inner = original
            if layer == "parallel.pool_stop":
                inner = _snapshot_workers(rec, original)
            _rebind(original, rec.wrap(layer, inner, after))
            continue
        cls_name, method = qualname.split(".")
        if cls_name == "*":
            classes = _classes_defining(module, method)
        else:
            classes = [getattr(importlib.import_module(module), cls_name)]
        if not classes:
            raise RuntimeError(f"no class of {module} defines {method!r}")
        for cls in classes:
            _patch_method(rec, layer, cls, method, after)
    # The sweep coordinator blocks on results through as_completed.
    _rebind(_futures.as_completed, rec.wrap_iter("parallel.wait", _futures.as_completed))
    return rec


def _snapshot_workers(rec: Recorder, shutdown):
    """``shutdown`` preceded by reading each live pool worker's CPU time."""
    import multiprocessing

    @functools.wraps(shutdown)
    def wrapper(*args, **kwargs):
        for proc in multiprocessing.active_children():
            try:
                rec.worker_cpu_s[proc.pid] = _cpu_s(proc.pid)
            except OSError:
                pass
        return shutdown(*args, **kwargs)

    return wrapper


# -- reading a dump --------------------------------------------------------

def summarize(doc: dict) -> dict:
    """Per-layer self seconds, counts and span totals of one dumped run."""
    self_s: dict[str, float] = {}
    top_level_s = 0.0
    first_submit = last_wait = None
    for name, start, end, parent, child in doc["spans"]:
        dur = end - start
        self_s[name] = self_s.get(name, 0.0) + (dur - child) / 1e9
        if parent < 0:
            top_level_s += dur / 1e9
        if name == "parallel.submit" and first_submit is None:
            first_submit = start
        if name == "parallel.wait":
            last_wait = end
    compute_wall_s = (
        (last_wait - first_submit) / 1e9
        if first_submit is not None and last_wait is not None
        else 0.0
    )
    return {
        "self_s": self_s,
        "top_level_s": top_level_s,
        "counts": doc["counts"],
        "store_bytes_read": doc["store_bytes_read"],
        "store_bytes_written": doc["store_bytes_written"],
        "compute_wall_s": compute_wall_s,
        "worker_cpu_s": sum(doc["worker_cpu_s"].values()),
        "n_workers": len(doc["worker_cpu_s"]),
        "program_worker_s": doc["program_worker_s"],
        "queue_wait_ns_p50": doc["queue_wait_ns_p50"],
    }
