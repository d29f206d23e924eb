"""Golden trial fingerprint: every Table-2 environment's output, pinned.

The artifact store keys series by profile, seed and ``ANALYSIS_VERSION``,
and the version guard's manifest covers ``core/`` and ``analysis/`` only.
The simulator packages that shape the trials (``net/``, ``replay/``,
``timing/``, ``generators/``, ``testbeds/``) are guarded here instead,
behaviourally: the committed ``golden_fingerprint.json`` holds sha256
digests of every environment's trial bytes (tags and receive times, per
run), the per-run drop counts and the exact ``repr`` of each pair's κ
components at a small scale.  Any change to what the simulator produces,
or to what the analysis makes of it, fails this test loudly.

The scale is chosen so that ``fabric-shared-40g-noisy`` drops packets,
so the finite-queue tail-drop path is part of what is pinned.

An intended behavioural change re-records the file with::

    PYTHONPATH=src python tests/test_golden_fingerprint.py --update

and must then bump ``ANALYSIS_VERSION`` (the version field of the store
key, see ``docs/sweeps.md``), since stored series from before the change
are no longer what the code produces.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core import compare_series
from repro.experiments.scenarios import SCENARIOS
from repro.testbeds.base import Testbed

GOLDEN_PATH = Path(__file__).with_name("golden_fingerprint.json")

#: Duration scale and series length of the fingerprint.
SCALE = 0.01
N_RUNS = 3


def _trial_digest(trial) -> str:
    h = hashlib.sha256()
    h.update(trial.tags.dtype.str.encode())
    h.update(trial.tags.tobytes())
    h.update(trial.times_ns.dtype.str.encode())
    h.update(trial.times_ns.tobytes())
    return h.hexdigest()


def environment_fingerprint(key: str) -> dict:
    """The fingerprint of one registered scenario at :data:`SCALE`."""
    sc = next(s for s in SCENARIOS if s.key == key)
    trials = Testbed(sc.profile(SCALE), seed=sc.seed).run_series(N_RUNS)
    report = compare_series(list(trials), environment=key)
    return {
        "trials": [_trial_digest(t) for t in trials],
        "n_packets": [len(t) for t in trials],
        "n_dropped": [int(t.meta["n_dropped"]) for t in trials],
        "pairs": [
            {
                "U": repr(p.metrics.u),
                "O": repr(p.metrics.o),
                "I": repr(p.metrics.i),
                "L": repr(p.metrics.l),
                "kappa": repr(p.kappa),
            }
            for p in report.pairs
        ],
    }


def fingerprint() -> dict:
    return {
        "scale": SCALE,
        "n_runs": N_RUNS,
        "environments": {sc.key: environment_fingerprint(sc.key) for sc in SCENARIOS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_environment(golden):
    assert golden["scale"] == SCALE and golden["n_runs"] == N_RUNS
    assert list(golden["environments"]) == [sc.key for sc in SCENARIOS]


@pytest.mark.parametrize("key", [sc.key for sc in SCENARIOS])
def test_environment_matches_golden(golden, key):
    assert environment_fingerprint(key) == golden["environments"][key]


def test_noisy_scenario_exercises_tail_drop(golden):
    drops = golden["environments"]["fabric-shared-40g-noisy"]["n_dropped"]
    assert all(d > 0 for d in drops), drops


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden_fingerprint.py --update")
    GOLDEN_PATH.write_text(json.dumps(fingerprint(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
