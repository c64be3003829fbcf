"""Property tests for the vectorized/memoised step pricing (PR 6).

Two layers of the refactor carry numerical risk and are pinned here
against ``tests/golden/step-pricing.json``, a table recorded from the
frozen scalar reference pricer of the pre-calendar serving loop:

* :func:`repro.moe.scheduler.segment_seconds_from_loads` prices expert
  segments through numpy over padded tile buckets — it must match the
  scalar per-expert prices elementwise across randomized loads;
* :meth:`repro.serve.engine.ServingEngine.step_seconds` routes through
  the memoising :class:`~repro.serve.costs.StepPricer` — it must match
  the scalar step prices across randomized plans for every registered
  engine, including the cost-driven ``auto`` selector, and across the
  stochastic LPT stream path's plan sequence.

Tolerance is 1e-9 relative even though the implementations are
designed to agree exactly — the property is "same model", not "same
rounding story".  After an intentional cost-model change, regenerate
the table with ``PYTHONPATH=src python tests/test_serve_pricing.py``.

The fast path's prices, :meth:`~repro.serve.costs.StepPricer.decode_steps`,
are pinned with ``==`` instead: to ``price`` on the same plan and to the
models-layer composition of decode attention, MoE layer and RMSNorm.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import pytest

from repro.context import ExecutionContext
from repro.models.attention import decode_attention_cost
from repro.models.decoder import norm_seconds
from repro.moe.scheduler import segment_seconds_from_loads
from repro.moe.trace import zipf_expert_popularity
from repro.serve.batcher import ActiveRequest, PrefillChunk, StepPlan
from repro.serve.costs import StepPricer, decode_context
from repro.serve.engine import ServingEngine
from repro.workloads.traces import Request
from repro.utils.rng import new_rng

PRICING_TABLE = Path(__file__).resolve().parent / "golden" / "step-pricing.json"

ENGINES = ["samoyeds", "transformers", "megablocks", "vllm-ds", "pit",
           "auto"]
SEGMENT_CASES = [(64, 1), (64, 2), (128, 1), (128, 2)]


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


def _price_plans(engine: ServingEngine, plans) -> list[float | None]:
    """Price ``plans`` in order on one engine; an empty plan keeps its
    position as ``None``."""
    return [None if plan.empty else float(engine.step_seconds(plan))
            for plan in plans]


def _segment_prices(tile_n: int, tp: int) -> list[list[float]]:
    """Six rounds of per-expert segment prices over random loads, each
    with at least one idle expert."""
    ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100")
    kernel = ctx.segment_kernel()
    rng = new_rng(99)
    rounds = []
    for _ in range(6):
        loads = rng.integers(0, 4096, size=ctx.config.num_experts)
        loads[rng.integers(0, len(loads))] = 0    # always an idle expert
        rounds.append([float(s) for s in segment_seconds_from_loads(
            ctx.config, loads, ctx.spec, kernel, tile_n, tp=tp)])
    return rounds


def _step_prices(engine: str) -> list[float | None]:
    """Eight random plans priced in sequence by one ``engine`` server."""
    server = ServingEngine(
        ctx=ExecutionContext.create("mixtral-8x7b", engine, "a100"),
        num_layers=1, seed=3)
    rng = new_rng(7)
    return _price_plans(server, [_random_plan(rng) for _ in range(8)])


def _lpt_stream_prices() -> list[float | None]:
    """Five random plans priced in sequence on the stochastic 4-stream
    LPT path, which consumes one RNG draw per step."""
    server = ServingEngine(
        ctx=ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100",
                                    streams=4),
        num_layers=1, seed=13, routing_skew=1.1)
    rng = new_rng(17)
    return _price_plans(server, [_random_plan(rng) for _ in range(5)])


def _pricing_table() -> dict[str, object]:
    return {
        "segments": {f"tile_n={tile_n},tp={tp}": _segment_prices(tile_n, tp)
                     for tile_n, tp in SEGMENT_CASES},
        "step_seconds": {engine: _step_prices(engine)
                         for engine in ENGINES},
        "lpt_streams": _lpt_stream_prices(),
    }


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(PRICING_TABLE.read_text())


@pytest.mark.parametrize("tile_n", [64, 128])
@pytest.mark.parametrize("tp", [1, 2])
def test_bucketed_segments_match_scalar_reference(table, tile_n, tp):
    want = table["segments"][f"tile_n={tile_n},tp={tp}"]
    got = _segment_prices(tile_n, tp)
    assert len(got) == len(want)
    for got_round, want_round in zip(got, want):
        assert got_round == pytest.approx(want_round, rel=1e-9,
                                          abs=1e-18)


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
def test_step_seconds_matches_reference_across_random_plans(table, engine):
    want = table["step_seconds"][engine]
    got = _step_prices(engine)
    assert len(got) == len(want)
    for round_, (price, expected) in enumerate(zip(got, want)):
        assert price == pytest.approx(expected, rel=1e-9), (
            f"{engine}: step {round_} diverged")


def test_step_seconds_memo_hit_is_identical():
    """Pricing the same plan twice must return the identical float —
    composed the second time from the component memos the first one
    filled, it may never drift from the first computation."""
    eng = ServingEngine(
        ctx=ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100"),
        num_layers=1, seed=3)
    plan = _random_plan(new_rng(21))
    assert eng.step_seconds(plan) == eng.step_seconds(plan)


@pytest.mark.parametrize("gpu", ["a100", "rtx4070s"])
@pytest.mark.parametrize("flash", [True, False], ids=["flash", "noflash"])
@pytest.mark.parametrize("engine", ["samoyeds", "auto", "vllm-ds"])
def test_decode_steps_equal_price_and_reference(engine, flash, gpu):
    """Each value of ``StepPricer.decode_steps`` is exactly what a fresh
    pricer's ``price`` gives that step's decode-only plan, and exactly
    the models-layer composition — decode attention + MoE layer +
    RMSNorm, times the layers — in that summation order, over 40
    successive steps of batches of 1, 3, 8 and 37 heterogeneous
    residents."""
    ctx = ExecutionContext.create("mixtral-8x7b", engine, gpu, flash=flash)
    config, spec = ctx.config, ctx.spec
    layers = config.num_layers
    popularity = zipf_expert_popularity(config.num_experts, 0.0)

    def pricer():
        return StepPricer(ctx, layers, popularity, new_rng(0))

    for batch in (1, 3, 8, 37):
        rng = new_rng(batch)
        residents = []
        for rid in range(batch):
            prompt = int(rng.integers(16, 2048))
            residents.append(ActiveRequest(
                request=Request(rid=rid, arrival_s=0.0,
                                prompt_tokens=prompt, output_tokens=4096),
                admitted_s=0.0, generated=int(rng.integers(1, 512)),
                prefilled=True, prefilled_tokens=prompt))
        steps = pricer().decode_steps(batch, decode_context(residents))
        for step_s in islice(steps, 40):
            context = decode_context(residents)
            assert step_s == pricer().price(
                StepPlan(decode=tuple(residents)))[0], (batch, context)
            assert step_s == (
                0.0 + decode_attention_cost(config, context, spec,
                                            batch=batch,
                                            flash=flash).total_s
                + ctx.engine.cost(config, batch, spec).time_s
                + norm_seconds(config, batch, spec)) * layers, \
                (batch, context)
            for ar in residents:
                ar.generated += 1


def test_lpt_streams_pricing_matches_reference_sequence(table):
    """The stochastic LPT path consumes one RNG draw per step; with the
    recorded seeds the event core must price the same plan *sequence*
    identically (memoisation must not skip draws)."""
    assert _lpt_stream_prices() == pytest.approx(table["lpt_streams"],
                                                 rel=1e-9)


if __name__ == "__main__":
    PRICING_TABLE.write_text(
        json.dumps(_pricing_table(), sort_keys=True, indent=1) + "\n")
