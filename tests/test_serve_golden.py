"""Golden pinning: the event-calendar core vs the frozen reference loop
and vs committed report files.

The PR 6 refactor replaced the nested ``while arrivals or waiting or
running`` loops with an event calendar and memoised/vectorized step
pricing.  The contract is *byte identity*: for every serving
configuration the new :class:`~repro.serve.engine.ServingEngine` must
produce a report whose JSON serialisation equals the pre-refactor
:class:`~repro.serve._legacy_loop.ReferenceEngine`'s, byte for byte —
same floats, same counts, same ordering.  Any intentional behaviour
change must update the reference snapshot, not relax this test.

The reference loop shares the memory ledgers with the event core, so
it cannot see a ledger drift, and it has no disaggregated counterpart
at all.  The same fixtures (plus a tenant-scheduled chunked/paged
``auto`` run and a disaggregated run with an ``ep=2`` paged decode
pool) are therefore also pinned against reports committed under
``tests/golden/``.  After an intentional behaviour change, regenerate
them with ``PYTHONPATH=src python tests/test_serve_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Deployment
from repro.context import ExecutionContext
from repro.serve._legacy_loop import ReferenceEngine
from repro.serve.batcher import ChunkedPrefillBatcher, StaticBatcher
from repro.serve.engine import ServingEngine
from repro.serve.request import poisson_trace

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _report(cls, case):
    kw = dict(case["eng"])
    factory = kw.pop("batcher_factory", None)
    if factory is not None:
        kw["batcher"] = factory()
    engine = cls(ctx=ExecutionContext.create(*case["ctx"],
                                             **case["ctx_kw"]), **kw)
    return engine.run(poisson_trace(**case["trace"]))


def _run(cls, case) -> str:
    return json.dumps(_report(cls, case).to_dict(), sort_keys=True)


# One fixture per serving surface: the plain continuous path (which
# exercises the uneventful-decode fast path), paged preemption, LPT
# stream overlap, auto dispatch, multi-device parallel serving, the
# horizon cut, chunked prefill, static batching and a dense engine.
CASES = {
    "serve": dict(
        trace=dict(num_requests=40, rate_qps=60.0, seed=3),
        ctx=("mixtral-8x7b", "samoyeds", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=11)),
    "paged": dict(
        trace=dict(num_requests=50, rate_qps=400.0, seed=5,
                   prompt_tokens=700, output_tokens=48, jitter=0.9),
        ctx=("mixtral-8x7b", "samoyeds", "rtx4070s"), ctx_kw={},
        eng=dict(num_layers=1, seed=11, page_size=16)),
    "lpt-streams": dict(
        trace=dict(num_requests=25, rate_qps=60.0, seed=7),
        ctx=("mixtral-8x7b", "samoyeds", "a100"),
        ctx_kw=dict(streams=4),
        eng=dict(num_layers=1, seed=13, routing_skew=1.1)),
    "auto": dict(
        trace=dict(num_requests=30, rate_qps=70.0, seed=9),
        ctx=("mixtral-8x7b", "auto", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=17)),
    "parallel": dict(
        trace=dict(num_requests=25, rate_qps=50.0, seed=2),
        ctx=("mixtral-8x7b", "samoyeds", "a100"),
        ctx_kw=dict(parallel="ep=4,tp=2", link="nvlink"),
        eng=dict(num_layers=1, seed=19, routing_skew=0.8)),
    "scale-horizon": dict(
        trace=dict(num_requests=60, rate_qps=300.0, seed=4),
        ctx=("mixtral-8x7b", "samoyeds", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=23, horizon_s=0.5)),
    "chunked": dict(
        trace=dict(num_requests=25, rate_qps=90.0, seed=6,
                   prompt_tokens=900, jitter=0.7),
        ctx=("mixtral-8x7b", "samoyeds", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=29,
                 batcher_factory=lambda: ChunkedPrefillBatcher(
                     token_budget=512))),
    "static": dict(
        trace=dict(num_requests=20, rate_qps=40.0, seed=8),
        ctx=("mixtral-8x7b", "samoyeds", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=31,
                 batcher_factory=lambda: StaticBatcher(batch_size=8))),
    "dense": dict(
        trace=dict(num_requests=25, rate_qps=60.0, seed=10),
        ctx=("mixtral-8x7b", "transformers", "a100"), ctx_kw={},
        eng=dict(num_layers=1, seed=37)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_core_byte_identical_to_reference(name):
    new = _run(ServingEngine, CASES[name])
    old = _run(ReferenceEngine, CASES[name])
    assert new == old, f"report JSON diverged on fixture {name!r}"


#: A light-load, long-decode trace: long uneventful-decode runs.
FAST_PATH = dict(
    trace=dict(num_requests=12, rate_qps=5.0, seed=1, prompt_tokens=128,
               output_tokens=200, jitter=0.5),
    ctx=("mixtral-8x7b", "samoyeds", "a100"), ctx_kw={},
    eng=dict(num_layers=1, seed=7))


def test_fast_path_decode_run_is_byte_identical():
    """A light-load, long-decode trace drives long uneventful-decode
    runs through the fast path; the report must still match the
    reference byte for byte."""
    assert (_run(ServingEngine, FAST_PATH)
            == _run(ReferenceEngine, FAST_PATH))


# ----------------------------------------------------------------------
# Frozen reports
# ----------------------------------------------------------------------
#: Deployment payloads the reference loop cannot replay.  Both run past
#: their KV knee on rtx4070s devices, so the frozen reports include
#: preemptions.
SPEC_CASES = {
    "tenants-chunked-paged-auto": {
        "model": {"name": "mixtral-8x7b", "engine": "auto",
                  "num_layers": 1},
        "hardware": {"gpu": "rtx4070s"},
        "serving": {"batcher": "chunked", "page_size": 16,
                    "scheduler": "priority_slack"},
        "workload": {
            "kind": "bursty", "requests": 48, "qps": 40.0,
            "burst_factor": 8.0, "burst_len": 24, "prompt_tokens": 2048,
            "output_tokens": 48, "jitter": 0.3, "seed": 5,
            "tenants": [
                {"name": "interactive", "priority": 1, "share": 0.5,
                 "ttft_slo_s": 0.5, "tpot_slo_s": 0.05},
                {"name": "batch", "priority": 0, "share": 0.5},
            ],
        },
    },
    "disagg-ep2-paged": {
        "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                  "num_layers": 1},
        "hardware": {"gpu": "a100"},
        "serving": {
            "page_size": 16, "router": "least_outstanding_tokens",
            "transfer_link": "pcie4",
            "pools": [
                {"name": "prefill-a", "role": "prefill", "gpu": "h100"},
                {"name": "prefill-b", "role": "prefill", "gpu": "h100"},
                {"name": "decode", "role": "decode", "gpu": "rtx4070s",
                 "parallel": "ep=2"},
            ],
        },
        "workload": {"kind": "poisson", "requests": 48, "qps": 1000.0,
                     "prompt_tokens": 3072, "output_tokens": 256,
                     "routing_skew": 0.8, "seed": 7},
    },
}


def _frozen_json(name: str) -> str:
    """The report of frozen fixture ``name``, as committed."""
    if name in SPEC_CASES:
        report = Deployment.from_dict(SPEC_CASES[name]).run()
    else:
        report = _report(ServingEngine, FAST_PATH if name == "fast-path"
                         else CASES[name])
    return json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n"


FROZEN = sorted([*CASES, "fast-path", *SPEC_CASES])


@pytest.mark.parametrize("name", FROZEN)
def test_report_matches_frozen_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert _frozen_json(name) == expected, \
        f"report JSON diverged from tests/golden/{name}.json"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden in FROZEN:
        (GOLDEN_DIR / f"{golden}.json").write_text(_frozen_json(golden))
