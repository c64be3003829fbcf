"""Golden pinning: the cost-model paper experiments vs a committed file.

``benchmarks/test_*.py`` asserts only the shape of each experiment
(orderings, ``> 1.0``), so a change to the cost-model stack could move
every modeled number without a test noticing.  This file pins them:
for each of the 12 cost-model experiments in
:data:`repro.bench.figures.EXPERIMENTS` the golden holds the result's
``data`` and a SHA-256 digest of its ``text``, and the contract is
*byte identity* of their ``json.dumps(..., sort_keys=True)``.

The two pruning proxies (``tab04``, ``tab05``) share no code with the
cost model and are left out.  They train small networks (``tab04``
about 2 s and ``tab05`` about 10 s in a fresh process on a 2-vCPU Xeon
host), and their matrix products go through the installed BLAS, whose
kernel depends on the CPU; training amplifies any last-bit difference,
so a byte golden written on one machine may fail on another.
``tests/test_pruning_nets.py`` instead pins each piece of their
training step to a reference computed in the same process.

All 12 run in one process, in registry order, so a memo entry one
experiment leaves behind on a shared engine or kernel and another
experiment reads back also shows up here.  Any intentional change to
the modeled numbers must regenerate the file, not relax this test:
``PYTHONPATH=src python tests/test_experiments_golden.py``.

The committed file was written by CPython 3.11 with numpy 2.4.  From
3.12 on, ``sum()`` adds floats with compensated summation, and the
cost model sums floats, so an interpreter from 3.12 on may differ in
the last bit of some numbers here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.figures import EXPERIMENTS, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden" / "experiments.json"

#: The pruning proxies: accuracy experiments, not the cost model.
PRUNING = ("tab04", "tab05")

COST_MODEL = [eid for eid in EXPERIMENTS if eid not in PRUNING]


def _results() -> dict[str, dict]:
    """Every cost-model experiment's data and text digest, run in
    registry order in this process."""
    results = {}
    for eid in COST_MODEL:
        result = run_experiment(eid)
        results[eid] = {
            "data": result.data,
            "text_sha256": hashlib.sha256(
                result.text.encode()).hexdigest(),
        }
    return results


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def frozen() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def fresh() -> dict[str, dict]:
    return _results()


def test_golden_covers_every_cost_model_experiment(frozen):
    assert sorted(frozen) == sorted(COST_MODEL)


@pytest.mark.parametrize("eid", COST_MODEL)
def test_experiment_matches_frozen_golden(eid, frozen, fresh):
    assert _dump(fresh[eid]) == _dump(frozen[eid]), \
        f"{eid} diverged from tests/golden/experiments.json"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_results(), sort_keys=True, indent=1)
                      + "\n")
