"""Property tests for the vectorized/memoised step pricing (PR 6).

Two layers of the refactor carry numerical risk and are pinned here:

* :func:`repro.moe.scheduler.segment_seconds_from_loads` now prices
  expert segments through numpy over padded tile buckets — it must
  match the frozen scalar implementation
  (:func:`repro.serve._legacy_loop._reference_segment_seconds`)
  elementwise across randomized loads;
* :meth:`repro.serve.engine.ServingEngine.step_seconds` now routes
  through the memoising :class:`~repro.serve.costs.StepPricer` — it
  must match the frozen scalar
  :meth:`~repro.serve._legacy_loop.ReferenceEngine.step_seconds`
  across randomized plans for every registered engine, including the
  cost-driven ``auto`` selector.

Tolerance is 1e-9 relative even though the implementations are
designed to agree exactly — the property is "same model", not "same
rounding story".
"""

from __future__ import annotations

import pytest

from repro.context import ExecutionContext
from repro.moe.scheduler import segment_seconds_from_loads
from repro.serve._legacy_loop import (
    ReferenceEngine,
    _reference_segment_seconds,
)
from repro.serve.batcher import ActiveRequest, PrefillChunk, StepPlan
from repro.serve.engine import ServingEngine
from repro.workloads.traces import Request
from repro.utils.rng import new_rng

ENGINES = ["samoyeds", "transformers", "megablocks", "vllm-ds", "pit",
           "auto"]


def _random_plan(rng) -> StepPlan:
    """A randomized step: some prefill admissions, some chunk slices,
    some decode residents with heterogeneous contexts."""
    def active(rid, prompt, generated, prefilled):
        req = Request(rid=rid, arrival_s=0.0, prompt_tokens=prompt,
                      output_tokens=64)
        return ActiveRequest(
            request=req, admitted_s=0.0, generated=generated,
            prefilled=prefilled,
            prefilled_tokens=prompt if prefilled else 0)

    rid = iter(range(1000))
    prefill = tuple(
        active(next(rid), int(rng.integers(16, 2048)), 0, False)
        for _ in range(int(rng.integers(0, 4))))
    decode = tuple(
        active(next(rid), int(rng.integers(16, 2048)),
               int(rng.integers(1, 512)), True)
        for _ in range(int(rng.integers(0, 32))))
    chunks = []
    for _ in range(int(rng.integers(0, 3))):
        ar = active(next(rid), int(rng.integers(512, 4096)), 0, False)
        offset = int(rng.integers(0, ar.request.prompt_tokens - 8))
        tokens = int(rng.integers(8, ar.request.prompt_tokens - offset))
        ar.prefilled_tokens = offset
        chunks.append(PrefillChunk(ar=ar, tokens=tokens, offset=offset))
    return StepPlan(prefill=prefill, decode=decode, chunks=tuple(chunks))


@pytest.mark.parametrize("tile_n", [64, 128])
@pytest.mark.parametrize("tp", [1, 2])
def test_bucketed_segments_match_scalar_reference(tile_n, tp):
    ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100")
    kernel = ctx.segment_kernel()
    rng = new_rng(99)
    for round_ in range(6):
        loads = rng.integers(0, 4096, size=ctx.config.num_experts)
        loads[rng.integers(0, len(loads))] = 0    # always an idle expert
        fast = segment_seconds_from_loads(ctx.config, loads, ctx.spec,
                                          kernel, tile_n, tp=tp)
        slow = _reference_segment_seconds(ctx.config, loads, ctx.spec,
                                          kernel, tile_n, tp=tp)
        assert len(fast) == len(slow)
        for got, want in zip(fast, slow):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-18)


def test_bucketed_segments_memo_reuse_is_exact():
    """A shared persistent memo (the pricer's) must not change values
    across calls."""
    ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100")
    kernel = ctx.segment_kernel()
    rng = new_rng(5)
    memo: dict[int, float] = {}
    loads = rng.integers(0, 2048, size=ctx.config.num_experts)
    first = segment_seconds_from_loads(ctx.config, loads, ctx.spec,
                                       kernel, 64, memo=memo)
    again = segment_seconds_from_loads(ctx.config, loads, ctx.spec,
                                       kernel, 64, memo=memo)
    assert first == again
    assert memo                       # buckets were recorded


@pytest.mark.parametrize("engine", ENGINES)
def test_step_seconds_matches_reference_across_random_plans(engine):
    rng = new_rng(7)
    new = ServingEngine(
        ctx=ExecutionContext.create("mixtral-8x7b", engine, "a100"),
        num_layers=1, seed=3)
    old = ReferenceEngine(
        ctx=ExecutionContext.create("mixtral-8x7b", engine, "a100"),
        num_layers=1, seed=3)
    for round_ in range(8):
        plan = _random_plan(rng)
        if plan.empty:
            continue
        got = new.step_seconds(plan)
        want = old.step_seconds(plan)
        assert got == pytest.approx(want, rel=1e-9), (
            f"{engine}: step {round_} diverged")


def test_step_seconds_memo_hit_is_identical():
    """Pricing the same plan twice must return the identical float —
    the whole-step memo may never drift from the first computation."""
    eng = ServingEngine(
        ctx=ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100"),
        num_layers=1, seed=3)
    plan = _random_plan(new_rng(21))
    assert eng.step_seconds(plan) == eng.step_seconds(plan)


def test_lpt_streams_pricing_matches_reference_sequence():
    """The stochastic LPT path consumes one RNG draw per step; with
    equal seeds the event core and the reference must price the same
    plan *sequence* identically (memoisation must not skip draws)."""
    args = ("mixtral-8x7b", "samoyeds", "a100")
    new = ServingEngine(ctx=ExecutionContext.create(*args, streams=4),
                        num_layers=1, seed=13, routing_skew=1.1)
    old = ReferenceEngine(ctx=ExecutionContext.create(*args, streams=4),
                          num_layers=1, seed=13, routing_skew=1.1)
    rng = new_rng(17)
    plans = [_random_plan(rng) for _ in range(5)]
    for plan in plans:
        if plan.empty:
            continue
        assert new.step_seconds(plan) == pytest.approx(
            old.step_seconds(plan), rel=1e-9)
