"""Golden pinning: every term of the per-engine memory footprint model.

Table 3's max batch, the serving ledgers' static charge and every
admission decision are priced by the five footprint functions of
:mod:`repro.moe.memory_model`.  This file pins each of them, for every
registered model and every registered engine (``auto`` included), at
context lengths 1, 1,000 and 4,096:

* ``fixed_overhead_bytes``;
* ``weight_bytes`` on the single-device plan and, under an ``ep=2,
  tp=2`` plan, for a device holding ``ceil(E / 2)`` routed experts;
* ``moe_workspace_bytes``;
* ``per_sequence_bytes`` on both plans.

The contract is equality of the JSON floats.  A model-engine pair the
engine does not support records only that :class:`ConfigError` is
raised.  Any intentional change to the modeled bytes must regenerate
the file, not relax this test:
``PYTHONPATH=src python tests/test_footprint_golden.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.hw.interconnect import ParallelPlan
from repro.moe import MODEL_REGISTRY
from repro.moe.layers import ENGINES
from repro.moe.memory_model import (
    fixed_overhead_bytes,
    moe_workspace_bytes,
    per_sequence_bytes,
    weight_bytes,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "footprints.json"

SEQ_LENS = (1, 1000, 4096)

#: The sharded plan the per-device terms are pinned under.
SHARDED = ParallelPlan(ep=2, tp=2)

PAIRS = [(model, engine) for model in MODEL_REGISTRY for engine in ENGINES]


def _terms(model: str, engine: str, seq_len: int) -> dict:
    """Every footprint term of one (model, engine, context) point."""
    config = MODEL_REGISTRY.get(model)
    device_experts = math.ceil(config.num_experts / 2)
    try:
        return {
            "fixed_overhead_bytes": fixed_overhead_bytes(config, engine),
            "weight_bytes": weight_bytes(config, engine),
            "weight_bytes_ep2_tp2": weight_bytes(
                config, engine, SHARDED, device_experts),
            "moe_workspace_bytes": moe_workspace_bytes(
                config, seq_len, engine),
            "per_sequence_bytes": per_sequence_bytes(
                config, engine, seq_len),
            "per_sequence_bytes_ep2_tp2": per_sequence_bytes(
                config, engine, seq_len, SHARDED),
        }
    except ConfigError:
        return {"error": "ConfigError"}


def _pair(model: str, engine: str) -> dict[str, dict]:
    return {str(seq_len): _terms(model, engine, seq_len)
            for seq_len in SEQ_LENS}


def _results() -> dict[str, dict[str, dict]]:
    results: dict[str, dict[str, dict]] = {}
    for model, engine in PAIRS:
        results.setdefault(model, {})[engine] = _pair(model, engine)
    return results


@pytest.fixture(scope="module")
def frozen() -> dict[str, dict[str, dict]]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_model_and_engine(frozen):
    assert sorted(frozen) == sorted(MODEL_REGISTRY)
    for model in MODEL_REGISTRY:
        assert sorted(frozen[model]) == sorted(ENGINES), model


@pytest.mark.parametrize("model,engine", PAIRS)
def test_footprint_terms_match_frozen_golden(model, engine, frozen):
    assert _pair(model, engine) == frozen[model][engine], \
        f"{model}/{engine} diverged from tests/golden/footprints.json"


def test_unsupported_pairs_raise(frozen):
    """The fused-kernel engines have no epilogue for OpenMoE's
    ``gelu_tanh``, so each of its terms records the error."""
    for engine in ("megablocks", "vllm-ds"):
        assert all(point == {"error": "ConfigError"}
                   for point in frozen["openmoe-34b"][engine].values())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_results(), sort_keys=True, indent=1)
                      + "\n")
