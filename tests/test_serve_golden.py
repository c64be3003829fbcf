"""Golden pinning: serving reports vs committed report files.

The contract is *byte identity*: for every serving configuration the
report's JSON serialisation must equal the file committed under
``tests/golden/``, byte for byte — same floats, same counts, same
ordering.  The colocated fixtures' files hold the reports of the
pre-calendar serving loop byte for byte, so they pin the event-calendar
:class:`~repro.serve.engine.ServingEngine` to it.  Three colocated runs
that preempt under the default policy were frozen from the calendar
loop later: ``paged-preempt`` while it still grew each resident with
its own ledger call, and ``prompt-preempt`` and
``chunked-prompt-preempt`` while it still grew decodes, whole prompts
and last chunks in three loops.  The deployment
fixtures (two tenant-scheduled chunked/paged ``auto`` runs, at page 16
and at page 7, and five multi-pool runs) pin the paths that loop never
had; the page-7 run was frozen before the uneventful-decode fast path
took paged, chunked and ``auto`` runs, and ``disagg-tenants-preempt``
while each preemption victim still came from a scan of every resident.
Any intentional behaviour change must regenerate the files, not relax
this test:
``PYTHONPATH=src python tests/test_serve_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Deployment
from repro.context import ExecutionContext
from repro.serve.batcher import ChunkedPrefillBatcher, StaticBatcher
from repro.serve.engine import ServingEngine
from repro.workloads.traces import poisson_trace

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
EXAMPLE_CONFIGS = Path(__file__).resolve().parents[1] / "examples" / "configs"


def _report(case):
    kw = dict(case["eng"])
    factory = kw.pop("batcher_factory", None)
    if factory is not None:
        kw["batcher"] = factory()
    engine = ServingEngine(ctx=ExecutionContext.create(
        *case["ctx"], **case["ctx_kw"]), **kw)
    return engine.run(poisson_trace(**case["trace"]))


# One fixture per serving surface: the plain continuous path (which
# exercises the uneventful-decode fast path), paged allocation below
# its knee, paged preemption under the default ``youngest_first``
# policy (during decode, and for a first token after a whole prompt or
# a last chunk), LPT stream overlap, auto dispatch, multi-device
# parallel serving, the horizon cut, chunked prefill, static batching
# and a dense engine.
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
    "paged-preempt": dict(
        trace=dict(num_requests=40, rate_qps=400.0, seed=12,
                   prompt_tokens=2048, output_tokens=256, jitter=0.5),
        ctx=("mixtral-8x7b", "samoyeds", "rtx4070s"), ctx_kw={},
        eng=dict(num_layers=1, seed=41, page_size=16)),
    # Prompts of exactly 128 pages: every first output token needs a
    # new block, so a full pool refuses it and preempts.
    "prompt-preempt": dict(
        trace=dict(num_requests=40, rate_qps=100.0, seed=1,
                   prompt_tokens=2048, output_tokens=512, jitter=0.0),
        ctx=("mixtral-8x7b", "samoyeds", "rtx4070s"), ctx_kw={},
        eng=dict(num_layers=1, seed=43, page_size=16)),
    "chunked-prompt-preempt": dict(
        trace=dict(num_requests=40, rate_qps=1000.0, seed=1,
                   prompt_tokens=2048, output_tokens=128, jitter=0.0),
        ctx=("mixtral-8x7b", "samoyeds", "rtx4070s"), ctx_kw={},
        eng=dict(num_layers=1, seed=43, page_size=16,
                 batcher_factory=ChunkedPrefillBatcher)),
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


#: A light-load, long-decode trace: long uneventful-decode runs.
FAST_PATH = dict(
    trace=dict(num_requests=12, rate_qps=5.0, seed=1, prompt_tokens=128,
               output_tokens=200, jitter=0.5),
    ctx=("mixtral-8x7b", "samoyeds", "a100"), ctx_kw={},
    eng=dict(num_layers=1, seed=7))


#: Deployments given as payloads, or a shipped config file: paths the
#: pre-calendar loop never had.  The first three run past their KV knee
#: on rtx4070s devices, so their frozen reports include preemptions.
#: The page-7 run serves 1,500-token prompts (no whole number of pages)
#: with 600-token outputs, so residents cross blocks at scattered steps
#: through long decode stretches, and a full pool refuses some of those
#: crossings mid-stretch.
#: The multi-pool cases pin the disaggregated paths one by one:
#: heterogeneous pools under ``slo_slack`` with a rate-limited tenant
#: (the shipped example); a horizon that cuts with KV transfers on the
#: wire, chunked prefill, migrations blocked on decode admission and a
#: decode-pool eviction re-routed to prefill; and ``RateRefill``
#: wake-ups plus an arrival rejected by its tenant's token bucket.
#: ``disagg-tenants-preempt`` runs ``priority_slack`` over continuous
#: prefill pools and a tight paged rtx4070s decode pool: its evictions
#: re-route into priority-ordered prefill queues.  Three tenants mix
#: the SLO shapes (both SLOs, TTFT only, none); the lowest class holds
#: the first two, so a decode victim is the TTFT-only tenant (no TPOT
#: deadline: infinite slack) while one is resident, else the both-SLO
#: request with the most slack.
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
    "tenants-chunked-page7-auto": {
        "model": {"name": "mixtral-8x7b", "engine": "auto",
                  "num_layers": 1},
        "hardware": {"gpu": "rtx4070s"},
        "serving": {"batcher": "chunked", "page_size": 7,
                    "scheduler": "priority_slack"},
        "workload": {
            "kind": "bursty", "requests": 24, "qps": 5.0,
            "burst_factor": 8.0, "burst_len": 12, "prompt_tokens": 1500,
            "output_tokens": 600, "jitter": 0.0, "seed": 3,
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
    "disagg-pools-example": EXAMPLE_CONFIGS / "disagg_pools.yaml",
    "disagg-chunked-horizon": {
        "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                  "num_layers": 1},
        "serving": {
            "batcher": "chunked", "token_budget": 1024, "page_size": 16,
            "router": "round_robin", "transfer_link": "pcie4",
            "horizon_s": 0.6,
            "pools": [
                {"name": "pf", "role": "prefill", "gpu": "rtx4070s"},
                {"name": "dc", "role": "decode", "gpu": "rtx4070s"},
            ],
        },
        "workload": {"kind": "poisson", "requests": 48, "qps": 200.0,
                     "prompt_tokens": 3072, "output_tokens": 128,
                     "jitter": 0.5, "seed": 11},
    },
    "disagg-tenants-preempt": {
        "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                  "num_layers": 1},
        "hardware": {"gpu": "a100"},
        "serving": {
            "scheduler": "priority_slack",
            "router": "least_outstanding_tokens",
            "transfer_link": "pcie4", "page_size": 16,
            "pools": [
                {"name": "pf-a", "role": "prefill", "gpu": "h100"},
                {"name": "pf-b", "role": "prefill", "gpu": "h100"},
                {"name": "dc", "role": "decode", "gpu": "rtx4070s"},
            ],
        },
        "workload": {
            "kind": "bursty", "requests": 64, "qps": 200.0,
            "burst_factor": 8.0, "burst_len": 24, "prompt_tokens": 2048,
            "output_tokens": 384, "jitter": 0.5, "seed": 5,
            "tenants": [
                {"name": "chat", "priority": 0, "share": 0.5,
                 "ttft_slo_s": 0.3, "tpot_slo_s": 0.05},
                {"name": "search", "priority": 0, "share": 0.1,
                 "ttft_slo_s": 0.5},
                {"name": "internal", "priority": 1, "share": 0.4},
            ],
        },
    },
    "disagg-tenants-ratelimit": {
        "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                  "num_layers": 1},
        "hardware": {"gpu": "a100"},
        "serving": {
            "scheduler": "priority_slack", "router": "slo_slack",
            "transfer_link": "pcie4", "page_size": 16,
            "pools": [
                {"name": "pf-a", "role": "prefill", "gpu": "h100"},
                {"name": "pf-b", "role": "prefill", "gpu": "h100"},
                {"name": "dc", "role": "decode"},
            ],
        },
        "workload": {
            "kind": "bursty", "requests": 40, "qps": 50.0,
            "burst_factor": 8.0, "burst_len": 20, "prompt_tokens": 512,
            "output_tokens": 32, "jitter": 0.9, "seed": 5,
            "tenants": [
                {"name": "prod", "priority": 1, "share": 0.5,
                 "ttft_slo_s": 0.2, "tpot_slo_s": 0.05},
                {"name": "batch", "priority": 0, "share": 0.5,
                 "token_rate_limit": 4000.0, "burst_tokens": 900},
            ],
        },
    },
}


def _frozen_json(name: str) -> str:
    """The report of frozen fixture ``name``, as committed."""
    if name in SPEC_CASES:
        case = SPEC_CASES[name]
        deployment = (Deployment.from_file(case) if isinstance(case, Path)
                      else Deployment.from_dict(case))
        report = deployment.run()
    else:
        report = _report(FAST_PATH if name == "fast-path"
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
