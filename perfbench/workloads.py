"""The benchmark's workloads: what each one serves and what it checks.

A serving workload is a :class:`repro.api.DeploymentSpec` payload made
from the benchmark's ``--seed``: the seed becomes ``workload.seed``, so
the program's own seeded generators draw the open-loop arrival trace
(and the routing draws) from it.  All serving workloads use full-depth
mixtral-8x7b.  See ``README.md`` beside this file for why each exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: The model every serving workload runs, at its full layer count.
MODEL = {"name": "mixtral-8x7b", "num_layers": None}


def chat_colocated(seed: int) -> dict:
    """Poisson chat traffic below saturation on one a100 (conservative
    KV reservation, continuous batching): the event calendar and the
    uneventful-decode fast path."""
    return {
        "model": {**MODEL, "engine": "samoyeds"},
        "hardware": {"gpu": "a100"},
        "serving": {"batcher": "continuous"},
        "workload": {"kind": "poisson", "requests": 4000, "qps": 2.0,
                     "prompt_tokens": 300, "output_tokens": 400,
                     "seed": seed},
    }


def paged_burst(seed: int) -> dict:
    """Bursts past the paged-KV knee with lulls that drain the backlog:
    two tenants under ``priority_slack``, chunked prefill, ``auto``."""
    return {
        "model": {**MODEL, "engine": "auto"},
        "hardware": {"gpu": "a100"},
        "serving": {"batcher": "chunked", "page_size": 16,
                    "scheduler": "priority_slack"},
        "workload": {
            "kind": "bursty", "requests": 480, "qps": 0.5,
            "burst_factor": 8.0, "burst_len": 96,
            "prompt_tokens": 2048, "output_tokens": 512, "jitter": 0.1,
            "seed": seed,
            "tenants": [
                {"name": "interactive", "priority": 1, "share": 0.5,
                 "ttft_slo_s": 2.0, "tpot_slo_s": 0.1},
                {"name": "batch", "priority": 0, "share": 0.5},
            ],
        },
    }


def disagg_ep(seed: int) -> dict:
    """Two h100 prefill pools feeding one a100 ``ep=2`` decode pool over
    pcie4, paged, with skewed expert routing."""
    return {
        "model": {**MODEL, "engine": "samoyeds"},
        "hardware": {"gpu": "a100"},
        "serving": {
            "page_size": 16, "router": "least_outstanding_tokens",
            "transfer_link": "pcie4",
            "pools": [
                {"name": "prefill-a", "role": "prefill", "gpu": "h100"},
                {"name": "prefill-b", "role": "prefill", "gpu": "h100"},
                {"name": "decode", "role": "decode", "gpu": "a100",
                 "parallel": "ep=2"},
            ],
        },
        "workload": {"kind": "poisson", "requests": 800, "qps": 8.0,
                     "prompt_tokens": 512, "output_tokens": 128,
                     "routing_skew": 0.8, "seed": seed},
    }


# ----------------------------------------------------------------------
# Character checks: does the run still stress what the workload is for?
# ``stats`` holds the report-derived model.* values plus, on traced
# runs, the per-layer counters.
# ----------------------------------------------------------------------
def _chat_character(stats: dict, offered_qps: float) -> dict:
    checks = {"no_preemptions": stats["model.preemptions"] == 0}
    if "engine.fast_path_share" in stats:
        checks["fast_path_share_high"] = \
            stats["engine.fast_path_share"] >= 0.5
    return checks


def _paged_character(stats: dict, offered_qps: float) -> dict:
    return {
        "preempts": stats["model.preemptions"] > 0,
        "backlog_drains":
            stats["model.qps_sustained"] >= 0.85 * offered_qps,
    }


def _disagg_character(stats: dict, offered_qps: float) -> dict:
    return {"every_request_transferred":
            stats["transfer.count"] == stats["offered"]}


@dataclass(frozen=True)
class ServingWorkload:
    name: str
    spec: Callable[[int], dict]
    character: Callable[[dict, float], dict]


SERVING = {
    w.name: w for w in (
        ServingWorkload("chat-colocated", chat_colocated, _chat_character),
        ServingWorkload("paged-burst", paged_burst, _paged_character),
        ServingWorkload("disagg-ep", disagg_ep, _disagg_character),
    )
}

#: The paper-experiment workload runs every ``run_experiment`` id.
PAPER_FIGURES = "paper-figures"

WORKLOADS = (*SERVING, PAPER_FIGURES)
