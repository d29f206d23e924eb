"""Regenerate ``perfbench/reference.json`` from the code in ``src/``.

    PYTHONPATH=src python3 perfbench/make_reference.py

The file holds what the ``table2`` workload checks every run against:
the exact Table-2 rows of ``repro table2`` (registered seeds, default
scale) and the number of packets its 45 captures hold.  Regenerate it
only when a change is meant to alter those rows, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from child import keep_rows

from repro import cli
from repro.experiments import SCENARIOS
from repro.experiments.runner import run_scenario_trials

TABLE2_ARGV = ["table2", "--jobs", "1"]


def main() -> None:
    kept: list = []
    keep_rows(kept, "table2")
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(TABLE2_ARGV) != 0:
            raise SystemExit("repro table2 failed")
    # Memoized: the series table2 just simulated, not a second simulation.
    pkts = sum(
        len(t) for sc in SCENARIOS for t in run_scenario_trials(sc.key)
    )
    doc = {"table2": {"argv": TABLE2_ARGV, "pkts": pkts, "rows": kept[0]}}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
