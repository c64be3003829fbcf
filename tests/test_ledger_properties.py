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

A second property pins the bulk growth call: on random admit / release
/ ``grow_each`` sequences, ``grow_each`` must grow exactly the requests
that one-request ``grow_each`` calls, in turn, grow before the first
refusal, and leave the same per-request state, running totals and
``recount()``; ``fit_count`` must predict its count without charging
anything.

A third property pins the paged grants: the bisected
``admission_chunk`` and ``clamp_growth`` must grant what the one-block
walk they replaced grants, for every model and engine (``auto``
included), any page size, on one ledger and on a paged ``ep=2`` grid,
with free bytes from below zero, through every block boundary, to a
whole device.

A fourth pins the K-step decode growth of the fast path:
``BlockAllocator.grow_steps`` must grow the steps that one-token
``grow_each`` calls grow whole, report the charge after each of them,
and leave the same ledger, with the pool's budget on a byte boundary.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import pytest
from hypothesis import example, given, settings
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


def device(config, engine, seq_tokens=1024, parallel=None,
           device_experts=None):
    """An rtx4070s resized so that its pool holds about four
    ``seq_tokens``-token sequences (as a ``parallel`` shard holding
    ``device_experts`` experts): random operation sequences often run
    into capacity."""
    static_bytes = (weight_bytes(config, engine, parallel, device_experts)
                    + fixed_overhead_bytes(config, engine))
    pool_bytes = 4 * per_sequence_bytes(config, engine, seq_tokens,
                                        parallel)
    return dataclasses.replace(
        get_gpu("rtx4070s"), dram_capacity=int(
            (static_bytes + pool_bytes) / (1.0 - FRAGMENTATION)))


def build(kind, model, engine, page_size, seq_tokens=1024):
    config = MODEL_REGISTRY[model]
    if kind == "tracker":
        return KVCacheTracker(config, engine, device(config, engine,
                                                     seq_tokens))
    if kind == "paged":
        return BlockAllocator(config, engine,
                              device(config, engine, seq_tokens),
                              page_size=page_size)
    # Both devices are sized for the shard with the most experts.
    experts = config.num_experts
    counts = (experts - experts // 4, experts // 4)
    plan = ParallelPlan(ep=2)
    gpu = device(config, engine, seq_tokens, plan, counts[0])
    return DeviceLedgers.create(
        config, engine, [gpu, gpu], plan, expert_counts=counts,
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
    """``clamp_growth`` as the one-block walk the bisection replaced,
    with no early return."""
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
                fits = ledger.clamp_growth(rid, b) == b
                assert ledger.grow_each((rid,), b) == fits
                if fits:
                    shadow[rid][0] += b
            elif op == "clamp":
                assert ledger.clamp_growth(rid, b) == min(
                    reference_clamp(led, rid, b) for led in devices(ledger))
            else:
                ledger.release(rid)
                del shadow[rid]
        check(ledger, shadow)


#: (ledger kind, page size) pairs for the bulk-growth property; the
#: page size is unused by the conservative kinds.
BULK_KINDS = [("tracker", 16), ("paged", 1), ("paged", 16), ("grid", 16),
              ("grid-paged", 1), ("grid-paged", 16)]

#: Admissions and bulk growths outweigh releases three to one, on a
#: pool of about four 256-token sequences, so most sequences fill it
#: and many bulk growths are refused part-way.
BULK_ADMIT = st.tuples(st.just("admit"), st.integers(1, 256),
                       st.integers(0, 256))
BULK_GROW = st.tuples(st.just("bulk"),
                      st.lists(st.integers(0, 63), min_size=1, max_size=12),
                      st.one_of(st.just(1), st.integers(2, 256)))
BULK_OPS = st.lists(st.one_of(
    BULK_ADMIT, BULK_GROW, BULK_ADMIT, BULK_GROW, BULK_GROW,
    st.tuples(st.just("release"), st.integers(0, 63), st.just(0)),
), min_size=16, max_size=48)


def snapshot(ledger):
    """Every device's per-request state and running totals, after
    checking that ``recount()`` agrees with the totals."""
    state = []
    for led in devices(ledger):
        totals = {"resident_tokens": led.resident_tokens,
                  "charged_bytes": led.charged_bytes}
        if isinstance(led, BlockAllocator):
            totals["used_blocks"] = led.used_blocks
        assert led.recount() == totals
        state.append((dict(led._context), dict(getattr(led, "_blocks", {})),
                      totals))
    return state


#: A pool filled with one-block requests, then one-token growth of
#: every resident, before and after a release: one-token refusals
#: part-way, which random sequences reach rarely.
FULL_POOL = [("admit", 16, 16)] * 80 + [
    ("bulk", list(range(80)), 1), ("release", 0, 0),
    ("bulk", list(range(80)), 1)]


@pytest.mark.parametrize("kind,page_size", BULK_KINDS)
@settings(max_examples=30, deadline=None)
@given(pair=st.sampled_from(PAIRS), ops=BULK_OPS)
@example(pair=("mixtral-8x7b", "samoyeds"), ops=FULL_POOL)
def test_grow_each_equals_sequential_grow(kind, page_size, pair, ops):
    bulk, sequential = (build(kind, *pair, page_size, seq_tokens=256)
                        for _ in range(2))
    resident: list[int] = []
    ids = itertools.count()
    for op, a, b in ops:
        if op == "admit":
            if bulk.can_admit_request(a, a + b):
                rid = next(ids)
                for ledger in (bulk, sequential):
                    ledger.admit(rid, a, a + b)
                resident.append(rid)
        elif op == "release" and resident:
            rid = resident.pop(a % len(resident))
            for ledger in (bulk, sequential):
                ledger.release(rid)
        elif op == "bulk" and resident:
            order = list(dict.fromkeys(resident[i % len(resident)]
                                       for i in a))
            before = snapshot(bulk)
            predicted = bulk.fit_count(order, b)
            assert snapshot(bulk) == before       # fit_count charges nothing
            grown = bulk.grow_each(order, b)
            one_by_one = 0
            for rid in order:
                fits = sequential.clamp_growth(rid, b) == b
                assert sequential.grow_each((rid,), b) == fits
                if not fits:
                    break
                one_by_one += 1
            assert grown == predicted == one_by_one
            assert snapshot(bulk) == snapshot(sequential)


def walked_chunk(led, desired):
    """``admission_chunk`` as the one-block walk the bisection
    replaced."""
    if desired <= 0:
        return 0
    blocks = 0
    while (blocks < led.blocks_for(desired)
           and led.block_bytes(blocks + 1) <= led.free_bytes):
        blocks += 1
    return min(desired, blocks * led.page_size)


class PinnedFree(BlockAllocator):
    """A paged ledger whose free bytes the test pins (``None`` leaves
    the device's own): the grants read the pool only through
    :attr:`free_bytes`, so pinning it reaches every block boundary
    exactly."""

    pinned_bytes: "float | None" = None

    @property
    def free_bytes(self) -> float:
        if self.pinned_bytes is None:
            return super().free_bytes
        return self.pinned_bytes


#: Every supporting (model, engine) pair plus each model under ``auto``.
GRANT_PAIRS = PAIRS + [(model, "auto") for model in MODEL_REGISTRY]

#: One device's free bytes: its own (a whole device, less the resident),
#: a share of the largest grant, or a cumulative block charge
#: ``block_bytes(blocks_for(tokens))``, less the resident's blocks when
#: the flag is set, nudged by a byte.
FREE = st.one_of(
    st.none(), st.floats(0.0, 1.0),
    st.tuples(st.integers(0, 8192), st.booleans(), st.integers(-1, 1)))


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from(GRANT_PAIRS),
       gpu=st.sampled_from(("a100", "rtx4070s")),
       page_size=st.one_of(st.sampled_from((1, 16, 256)),
                           st.integers(1, 512)),
       grid=st.booleans(), frees=st.lists(FREE, min_size=2, max_size=2),
       context=st.integers(0, 4096), desired=st.integers(0, 4096))
def test_bisected_grants_equal_the_block_walk(pair, gpu, page_size, grid,
                                              frees, context, desired):
    """With a ``context``-token resident, the bisected
    ``admission_chunk`` and ``clamp_growth`` grant what the one-block
    walk grants, on a paged ledger and on a paged ``ep=2`` grid with a
    skewed placement, from an empty pool to a whole device."""
    model, engine = pair
    config = MODEL_REGISTRY[model]
    spec = get_gpu(gpu)
    if grid:
        experts = config.num_experts
        leds = [PinnedFree(config, engine, spec, parallel=ParallelPlan(ep=2),
                           device_experts=count, page_size=page_size)
                for count in (experts - experts // 4, experts // 4)]
        ledger = DeviceLedgers(leds)
    else:
        ledger = PinnedFree(config, engine, spec, page_size=page_size)
        leds = [ledger]
    for led, free in zip(leds, frees):
        led.pinned_bytes = math.inf
        led.admit(0, context, context + desired)
        if isinstance(free, float):
            free *= led.block_bytes(led.blocks_for(context + desired))
        elif free is not None:
            tokens, beyond_resident, nudge = free
            free = (led.block_bytes(led.blocks_for(tokens)) + nudge
                    - (led.block_bytes(led.blocks_for(context))
                       if beyond_resident else 0))
        led.pinned_bytes = free
    assert ledger.admission_chunk(desired, desired) == min(
        walked_chunk(led, desired) for led in leds)
    assert ledger.clamp_growth(0, desired) == min(
        reference_clamp(led, 0, desired) for led in leds)


#: Where the pool's budget sits: ``None`` leaves it unbounded, else
#: ``(crossing, nudge, offset)`` pins it ``nudge`` bytes past the
#: cumulative charge after that crossing of the run (in the one-token
#: calls' order) and, unless ``offset`` is ``None``, pins the static
#: charge ``offset`` bytes below ``2**33`` less the charge before that
#: crossing.  The sums a comparison forms then round (to the 2**-19
#: grid above 2**33) past that charge and stay exact below it, so which
#: sums each comparison forms decides a byte boundary.
PIN = st.one_of(st.none(), st.tuples(
    st.integers(0, 10**6), st.integers(-1, 1),
    st.one_of(st.none(), st.sampled_from((2.0**-20, 0.5, 1 - 2.0**-20)))))


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from(GRANT_PAIRS),
       page_size=st.one_of(st.sampled_from((1, 7, 16, 512)),
                           st.integers(1, 512)),
       contexts=st.lists(st.integers(0, 2048), min_size=1, max_size=8),
       steps=st.integers(0, 80), data=st.data(), pin=PIN)
# Both residents cross at step 1: resident 1 into a 67 MB block (its
# routed tokens outgrow a 128-row megablocks segment), resident 0 into a
# 65 KB one.  The budget is pinned at the step's end, and the sums past
# resident 0's growth round down, so the 67 MB growth is refused here
# and fits if the order within the step is reversed.
@example(pair=("mixtral-8x7b", "megablocks"), page_size=1,
         contexts=[10, 512], steps=1, data=None, pin=(2, 0, 1 - 2.0**-20))
def test_grow_steps_equals_one_token_steps(pair, page_size, contexts, steps,
                                           data, pin):
    """``grow_steps(order, K)`` against K one-token ``grow_each(order)``
    calls on a twin that stop before the first call with a refusal: the
    same steps grown, the reported (reserved, utilisation) after each
    step that crossed a block equal to the twin's, no other step
    changing the twin's charge, and the same final ledger.  ``_advance``
    reads ``budget_bytes`` itself, so that is what is pinned."""
    model, engine = pair
    order = (data.draw(st.permutations(range(len(contexts))))
             if data is not None else list(range(len(contexts))))

    def ledger():
        led = BlockAllocator(MODEL_REGISTRY[model], engine,
                             get_gpu("rtx4070s"), page_size=page_size)
        led.budget_bytes = math.inf
        for rid, context in enumerate(contexts):
            led.admit(rid, context, context + steps)
        return led

    probe, run, twin = ledger(), ledger(), ledger()
    crossed = [probe.charged_bytes]     # the charge after each crossing
    for _ in range(steps):
        for rid in order:
            probe.grow_each((rid,))
            if probe.charged_bytes != crossed[-1]:
                crossed.append(probe.charged_bytes)
    if pin is not None:
        index, nudge, offset = pin
        index %= len(crossed)
        for led in (run, twin):
            if offset is not None:
                led.static_bytes = (2.0**33 - crossed[max(index - 1, 0)]
                                    - offset)
            led.budget_bytes = led.static_bytes + crossed[index] + nudge
    grown, reported = run.grow_steps(order, steps)
    fit, expected = 0, []
    charged_bytes = twin.charged_bytes
    while fit < steps and twin.fit_count(order) == len(order):
        assert twin.grow_each(order) == len(order)
        fit += 1
        if twin.charged_bytes != charged_bytes:
            charged_bytes = twin.charged_bytes
            expected.append((fit, twin.reserved_bytes,
                             twin.pool_utilisation))
    assert grown == fit
    assert reported == expected
    assert snapshot(run) == snapshot(twin)
