"""The processes the benchmark starts and measures.

Run from the checkout root with ``PYTHONPATH=src``::

    python perfbench/child.py probe [--jobs N]
    python perfbench/child.py captures DIR SEED OUT.json
    python perfbench/child.py cli [--layers OUT.json] [--rows OUT.json] -- ARGV...
    python perfbench/child.py monitor DIR OUT.json [--layers OUT.json]

``probe`` prints the CLOCK_MONOTONIC instant at which the CLI could do
work; ``captures`` is the untimed set-up of the capture workloads;
``cli`` runs ``repro.cli.main(ARGV)`` exactly as ``python -m repro``
would; ``monitor`` drives the ``repro monitor`` loop through the public
streaming API, timing every chunk.  ``--layers`` installs the span
wrappers of :mod:`layers` first and dumps them at exit; ``--rows`` keeps
the exact rows (U/O/I/L/κ) that ``repro analyze`` or ``repro table2``
computes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

CAPTURE_SCENARIO = "local-dual"
CAPTURE_SCALE = 1.0
CAPTURE_RUNS = 3
MONITOR_CHUNK = 4096
MONITOR_WINDOW_MS = 10.0
MONITOR_KAPPA_STEP = 0.02


def exact_rows(report) -> list[dict]:
    """Per-run U/O/I/L/κ at full precision (JSON floats round-trip exactly)."""
    return [
        {
            "run": p.run_label,
            "U": p.metrics.u,
            "O": p.metrics.o,
            "I": p.metrics.i,
            "L": p.metrics.l,
            "kappa": p.kappa,
        }
        for p in report.pairs
    ]


def _probe(args) -> int:
    from repro import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["scenarios"])
    if args.jobs > 1:
        from repro.parallel.pool import get_pool

        get_pool(args.jobs).submit(os.getpid).result()
    ready = time.monotonic()
    from repro.obs.export import host_context

    print(json.dumps({"ready": ready, "host": host_context()}))
    return 0


def _captures(args) -> int:
    from repro.analysis import load_series, save_series
    from repro.core.report import compare_series
    from repro.experiments import scenario
    from repro.testbeds import Testbed

    profile = scenario(CAPTURE_SCENARIO).profile(CAPTURE_SCALE)
    trials = Testbed(profile, seed=args.seed).run_series(CAPTURE_RUNS, jobs=1)
    save_series(trials, args.directory)
    loaded = load_series(args.directory)
    doc = {
        "pkts": sum(len(t) for t in loaded),
        "rows": exact_rows(compare_series(loaded, environment=args.directory)),
    }
    with open(args.out, "w") as f:
        json.dump(doc, f)
    return 0


def _finish_layers(rec, path: str) -> None:
    """Dump the recorder, adding what the program's own ``--trace`` exported
    about pool workers (empty unless the command ran with ``--trace``)."""
    from repro.obs import metrics, trace

    me = os.getpid()
    worker_s: dict[str, float] = {}
    for s in trace.records():
        if s.pid != me:
            worker_s[s.name] = worker_s.get(s.name, 0.0) + s.dur_ns / 1e9
    queue_wait = metrics.REGISTRY.snapshot()["histograms"].get("pool.queue_wait_ns")
    rec.dump(path, {
        "program_worker_s": worker_s,
        "queue_wait_ns_p50": (
            metrics.histogram_quantile(queue_wait, 0.5) if queue_wait else None
        ),
    })


def keep_rows(kept: list, command: str) -> None:
    """Record the exact rows behind ``repro analyze`` or ``repro table2``.

    The hook replaces the name where the command looks it up at call
    time: ``repro.analysis.analyze_directory``, or the module global
    ``table2`` that ``render_table2_text`` calls.
    """
    if command == "analyze":
        import repro.analysis

        analyze = repro.analysis.analyze_directory

        def keep_analyze(*a, **k):
            report = analyze(*a, **k)
            kept.append(exact_rows(report))
            return report

        repro.analysis.analyze_directory = keep_analyze
    elif command == "table2":
        import repro.experiments.tables as tables

        table2 = tables.table2

        def keep_table2(*a, **k):
            rows = table2(*a, **k)
            kept.append([
                {key: r[key] for key in ("environment", "U", "O", "I", "L", "kappa")}
                for r in rows
            ])
            return rows

        tables.table2 = keep_table2
    else:
        raise SystemExit(f"--rows does not apply to {command!r}")


def _cli(args) -> int:
    rec = None
    if args.layers:
        import layers

        rec = layers.install()
    kept: list[list[dict]] = []
    if args.rows:
        keep_rows(kept, args.argv[0])
    from repro import cli

    code = cli.main(args.argv)
    if args.rows:
        with open(args.rows, "w") as f:
            json.dump(kept, f)
    if rec is not None:
        _finish_layers(rec, args.layers)
    return code


def monitor_loop(directory: str) -> dict:
    """The ``repro monitor`` loop, with each chunk's feed timed."""
    from repro.analysis import KappaMonitor, StreamKappa, load_series

    trials = load_series(directory)
    baseline = trials[0]
    chunk = MONITOR_CHUNK
    mon = KappaMonitor(MONITOR_WINDOW_MS * 1e6, min_kappa_step=MONITOR_KAPPA_STEP)
    rows = []
    chunk_ns = []
    clock = time.perf_counter_ns
    for k, run in enumerate(trials[1:]):
        sid = run.label or f"run{k + 1}"
        sk = StreamKappa(baseline, run_label=sid)
        for lo in range(0, max(len(baseline), len(run)), chunk):
            t0 = clock()
            if lo < len(baseline):
                mon.feed_baseline(
                    sid, baseline.tags[lo : lo + chunk],
                    baseline.times_ns[lo : lo + chunk],
                )
            if lo < len(run):
                sk.update(run.tags[lo : lo + chunk], run.times_ns[lo : lo + chunk])
                mon.feed_run(
                    sid, run.tags[lo : lo + chunk], run.times_ns[lo : lo + chunk]
                )
            chunk_ns.append(clock() - t0)
        mon.finish(sid)
        vec = sk.result()
        rows.append({
            "run": sid, "U": vec.u, "O": vec.o, "I": vec.i, "L": vec.l,
            "kappa": vec.kappa(),
        })
    return {
        "rows": rows,
        "chunk_ns": chunk_ns,
        "windows": sum(mon.window_count(s) for s in mon.sessions),
        "degraded": sum(len(v) for v in mon.degraded.values()),
    }


def _monitor(args) -> int:
    rec = None
    if args.layers:
        import layers

        rec = layers.install()
    doc = monitor_loop(args.directory)
    with open(args.out, "w") as f:
        json.dump(doc, f)
    if rec is not None:
        _finish_layers(rec, args.layers)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--jobs", type=int, default=1)
    p = sub.add_parser("captures")
    p.add_argument("directory")
    p.add_argument("seed", type=int)
    p.add_argument("out")
    p = sub.add_parser("cli")
    p.add_argument("--layers")
    p.add_argument("--rows")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("monitor")
    p.add_argument("directory")
    p.add_argument("out")
    p.add_argument("--layers")
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return {"probe": _probe, "captures": _captures, "cli": _cli, "monitor": _monitor}[
        args.mode
    ](args)


if __name__ == "__main__":
    sys.exit(main())
