"""Property tests for the memory ledgers' running totals.

Random admit / grow / clamp_growth / admission_chunk / release
sequences drive a conservative :class:`KVCacheTracker`, a paged
:class:`BlockAllocator` and an ``ep=2`` :class:`DeviceLedgers` grid with
a skewed expert placement, for every registry model under every fixed
engine that supports it.  After each operation the O(1) queries must
equal (``==``, not approximately) the sums recomputed here from the
ledger's per-request state with the O(residents) formulas the running
totals replaced.  Each operation must also keep the admission contract:
a granted chunk is admissible, a growth within ``clamp_growth``
succeeds, and a refused admission or growth charges nothing.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError
from repro.hw import get_gpu
from repro.hw.interconnect import ParallelPlan
from repro.moe import MODEL_REGISTRY
from repro.moe.layers import ENGINES
from repro.moe.memory_model import (
    FRAGMENTATION,
    BlockAllocator,
    DeviceLedgers,
    KVCacheTracker,
    fixed_overhead_bytes,
    kv_cache_bytes,
    per_sequence_bytes,
    weight_bytes,
)

PAIRS = [(model, engine)
         for model, config in MODEL_REGISTRY.items()
         for engine, impl in ENGINES.items()
         if not impl.is_meta and impl.supports(config)]

KINDS = ("tracker", "paged", "grid", "grid-paged")

TOKENS = st.integers(0, 8192)
OPS = st.lists(st.one_of(
    st.tuples(st.just("admit"), TOKENS, TOKENS),
    st.tuples(st.just("chunk"), st.integers(1, 8192), TOKENS),
    st.tuples(st.just("grow"), st.integers(0, 63), st.integers(1, 2048)),
    st.tuples(st.just("clamp"), st.integers(0, 63), st.integers(0, 2048)),
    st.tuples(st.just("release"), st.integers(0, 63), st.just(0)),
), min_size=12, max_size=48)


def device(config, engine):
    """An rtx4070s resized so that its pool holds about four 1024-token
    sequences: random operation sequences often run into capacity."""
    static_bytes = (weight_bytes(config, engine)
                    + fixed_overhead_bytes(config, engine))
    pool_bytes = 4 * per_sequence_bytes(config, engine, 1024)
    return dataclasses.replace(
        get_gpu("rtx4070s"), dram_capacity=int(
            (static_bytes + pool_bytes) / (1.0 - FRAGMENTATION)))


def build(kind, model, engine, page_size):
    config = MODEL_REGISTRY[model]
    gpu = device(config, engine)
    if kind == "tracker":
        return KVCacheTracker(config, engine, gpu)
    if kind == "paged":
        return BlockAllocator(config, engine, gpu, page_size=page_size)
    experts = config.num_experts
    return DeviceLedgers.create(
        config, engine, [gpu, gpu], ParallelPlan(ep=2),
        expert_counts=(experts - experts // 4, experts // 4),
        page_size=page_size if kind == "grid-paged" else None)


def devices(ledger):
    return ledger.ledgers if isinstance(ledger, DeviceLedgers) else [ledger]


def charge(led, seq_len):
    return math.ceil(per_sequence_bytes(led.config, led.engine, seq_len,
                                        led.parallel))


def recomputed(led, shadow):
    """(reserved, live) bytes of one device, summed per request."""
    assert led._context == {rid: ctx for rid, (ctx, _) in shadow.items()}
    if isinstance(led, BlockAllocator):
        assert led._blocks == {rid: led.blocks_for(ctx)
                               for rid, (ctx, _) in shadow.items()}
        assert led.used_blocks == sum(led._blocks.values())
        charges = [charge(led, blocks * led.page_size)
                   for blocks in led._blocks.values()]
    else:
        assert led._reserved == {rid: charge(led, final)
                                 for rid, (_, final) in shadow.items()}
        charges = list(led._reserved.values())
    kv_bytes = sum(kv_cache_bytes(led.config, tokens)
                   for tokens in led._context.values())
    if led.parallel is not None and not led.parallel.is_trivial:
        kv_bytes /= led.parallel.tp
    return led.static_bytes + sum(charges), led.static_bytes + kv_bytes


def check(ledger, shadow):
    sums = [recomputed(led, shadow) for led in devices(ledger)]
    assert ledger.reserved_bytes == sum(reserved for reserved, _ in sums)
    assert ledger.live_bytes == sum(live for _, live in sums)
    assert ledger.free_bytes == min(
        led.budget_bytes - reserved
        for led, (reserved, _) in zip(devices(ledger), sums))
    assert ledger.active_requests == len(shadow)


def reference_clamp(led, rid, desired):
    """``clamp_growth`` as the full block loop, with no early return."""
    if desired <= 0:
        return 0
    if not isinstance(led, BlockAllocator):
        return desired
    held, context = led._blocks[rid], led._context[rid]
    blocks = max(held, led.blocks_for(context))
    target = led.blocks_for(context + desired)
    while (blocks < target and led.block_bytes(blocks + 1)
           - led.block_bytes(held) <= led.free_bytes):
        blocks += 1
    return max(0, min(desired, blocks * led.page_size - context))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("model,engine", PAIRS)
@settings(max_examples=6, deadline=None)
@given(ops=OPS, page_size=st.sampled_from((16, 256)))
def test_running_totals_equal_per_request_sums(model, engine, kind, ops,
                                               page_size):
    ledger = build(kind, model, engine, page_size)
    shadow: dict[int, list[int]] = {}        # rid -> [context, final]
    ids = itertools.count()
    for op, a, b in ops:
        if op == "admit":
            fits = ledger.can_admit_request(a, a + b)
            rid = next(ids)
            try:
                ledger.admit(rid, a, a + b)
            except CapacityError:
                assert not fits
            else:
                assert fits
                shadow[rid] = [a, a + b]
        elif op == "chunk":
            grant = ledger.admission_chunk(a, a + b)
            assert 0 <= grant <= a
            if grant:
                rid = next(ids)
                ledger.admit(rid, grant, a + b)
                shadow[rid] = [grant, a + b]
        elif shadow:
            rid = sorted(shadow)[a % len(shadow)]
            if op == "grow":
                room = ledger.clamp_growth(rid, b)
                try:
                    ledger.grow(rid, b)
                except CapacityError:
                    assert room < b
                else:
                    assert room == b
                    shadow[rid][0] += b
            elif op == "clamp":
                assert ledger.clamp_growth(rid, b) == min(
                    reference_clamp(led, rid, b) for led in devices(ledger))
            else:
                ledger.release(rid)
                del shadow[rid]
        check(ledger, shadow)
