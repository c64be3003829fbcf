"""Sim-sanitizer tests: each invariant fires on an injected bug and
stays silent on healthy runs, and sanitized reports are byte-identical
to unsanitized ones."""

from __future__ import annotations

import json

import pytest

from repro.analysis.sanitizer import (
    SanitizedDeviceLedgers,
    SanitizedEventManager,
    SanitizedEventQueue,
    SanitizedLedger,
    SanitizedResidentIndex,
    SanitizedStepPricer,
    sanitize_enabled,
    wrap_ledger,
)
from repro.context import ExecutionContext
from repro.errors import SanitizerError
from repro.moe.memory_model import (
    FRAGMENTATION,
    BlockAllocator,
    DeviceLedgers,
    KVCacheTracker,
)
from repro.moe.trace import zipf_expert_popularity
from repro.serve.batcher import ActiveRequest, StepPlan
from repro.serve.engine import ServingEngine
from repro.serve.events import Arrival, EventKind, StepComplete
from repro.serve.scheduling import QueueOrder, SlackIndex, YoungestFirst
from repro.utils.rng import new_rng
from repro.workloads.traces import Request, poisson_trace

MODEL = "qwen2-moe"


def make_ctx(**kwargs):
    return ExecutionContext.create(MODEL, "samoyeds", "rtx4070s",
                                   **kwargs)


def make_tracker(ctx=None):
    ctx = ctx or make_ctx()
    return KVCacheTracker(ctx.config, ctx.engine.name, ctx.spec)


def make_allocator(ctx=None, page_size=16):
    ctx = ctx or make_ctx()
    return BlockAllocator(ctx.config, ctx.engine.name, ctx.spec,
                          page_size=page_size)


# ----------------------------------------------------------------------
# Enable switch
# ----------------------------------------------------------------------
def test_sanitize_enabled_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize_enabled(False) is False
    monkeypatch.delenv("REPRO_SANITIZE")
    assert sanitize_enabled(True) is True
    assert sanitize_enabled(None) is False


@pytest.mark.parametrize("value,expected", [
    ("1", True), ("true", True), ("YES", True), ("on", True),
    ("0", False), ("", False), ("off", False),
])
def test_sanitize_enabled_env_values(monkeypatch, value, expected):
    monkeypatch.setenv("REPRO_SANITIZE", value)
    assert sanitize_enabled() is expected


# ----------------------------------------------------------------------
# Event calendar
# ----------------------------------------------------------------------
def req(rid, arrival_s=0.0):
    return Request(rid=rid, arrival_s=arrival_s, prompt_tokens=8,
                   output_tokens=4)


def test_out_of_order_pop_raises():
    queue = SanitizedEventQueue()
    queue.push(Arrival(when=1.0, request=req(1, 1.0)))
    queue.push(Arrival(when=2.0, request=req(2, 2.0)))
    assert queue.pop().when == 1.0
    # Corrupt the heap the way a mutated event would: force a key that
    # sorts before the already-popped one.
    queue._heap[0] = (0.5, 0, 3, 99,
                      Arrival(when=0.5, request=req(3, 0.5)))
    with pytest.raises(SanitizerError, match="heap-pop ordering"):
        queue.pop()


def test_clock_rewind_raises():
    manager = SanitizedEventManager()
    manager.on(EventKind.STEP_COMPLETE, lambda event: None)
    manager.queue.push(StepComplete(when=1.0, step_s=1.0))
    assert manager.advance()
    assert manager.clock == 1.0

    class Rewinder(SanitizedEventManager):
        def _dispatch(self, event):
            self.clock = 0.25            # the bug under test

    bad = Rewinder()
    bad.clock = manager.clock
    bad.queue.push(StepComplete(when=2.0, step_s=1.0))
    with pytest.raises(SanitizerError, match="clock monotonicity"):
        bad.advance()


def test_healthy_calendar_is_silent():
    manager = SanitizedEventManager()
    seen = []
    manager.on(EventKind.ARRIVAL, lambda e: seen.append(e.rid))
    for rid, when in ((2, 1.0), (1, 1.0), (3, 0.5)):
        manager.queue.push(Arrival(when=when, request=req(rid, when)))
    while manager.advance():
        pass
    assert seen == [3, 1, 2]             # time, then rid tie-break


# ----------------------------------------------------------------------
# Ledger conservation
# ----------------------------------------------------------------------
def test_ledger_leak_detected_by_assert_drained():
    ledger = SanitizedLedger(make_tracker())
    ledger.admit(1, 8, 12)
    ledger.admit(2, 8, 12)
    ledger.release(1)
    with pytest.raises(SanitizerError, match="ledger leak"):
        ledger.assert_drained()
    ledger.release(2)
    ledger.assert_drained()              # drained: silent


def test_double_release_detected():
    ledger = SanitizedLedger(make_tracker())
    ledger.admit(1, 8, 12)
    ledger.release(1)
    # The raw ledger tolerates this (pop with default); the sanitizer
    # flags it — a double release is always an accounting bug.
    with pytest.raises(SanitizerError, match="non-resident"):
        ledger.release(1)


def test_double_admit_detected():
    ledger = SanitizedLedger(make_tracker())
    ledger.admit(1, 8, 12)
    with pytest.raises(SanitizerError, match="double admission"):
        ledger.admit(1, 8, 12)


def test_grow_before_admit_detected():
    ledger = SanitizedLedger(make_tracker())
    with pytest.raises(SanitizerError, match="grow before admit"):
        ledger.grow_each((1,))


def test_phantom_residency_detected():
    inner = make_tracker()
    ledger = SanitizedLedger(inner)
    inner._context[99] = 4               # the bug: an uncharged entry
    with pytest.raises(SanitizerError, match="residency conservation"):
        ledger.admit(1, 8, 12)


def test_block_conservation_detected():
    inner = make_allocator()
    ledger = SanitizedLedger(inner)
    ledger.admit(1, 64, 96)
    inner._blocks[1] += 1                # the bug: blocks minted free
    with pytest.raises(SanitizerError, match="block conservation"):
        ledger.grow_each((1,))


@pytest.mark.parametrize("total,invariant", [
    ("_charged_bytes", "byte conservation"),
    ("_resident_tokens", "token conservation"),
])
def test_running_total_drift_detected(total, invariant):
    inner = make_allocator()
    ledger = SanitizedLedger(inner)
    ledger.admit(1, 64, 96)
    # The bug: a running total drifts from the per-request state.
    setattr(inner, total, getattr(inner, total) + 1)
    with pytest.raises(SanitizerError, match=invariant):
        ledger.grow_each((1,))


def test_failed_block_growth_charges_nothing():
    inner = make_allocator()
    ledger = SanitizedLedger(inner)
    ledger.admit(1, 64, 10_000_000)
    before = inner.reserved_bytes, inner.used_blocks
    assert ledger.grow_each((1,), 1_000_000_000) == 0
    # Refused clean: no partial charge recorded.
    assert (inner.reserved_bytes, inner.used_blocks) == before
    held = inner._blocks[1]
    assert ledger._allocated_blocks == held
    ledger.release(1)
    ledger.assert_drained()


def test_healthy_paged_lifecycle_is_silent():
    ledger = SanitizedLedger(make_allocator())
    for rid in (1, 2, 3):
        ledger.admit(rid, 64, 96)
    for _ in range(32):
        for rid in (1, 2, 3):
            assert ledger.grow_each((rid,)) == 1
    for rid in (1, 2, 3):
        ledger.release(rid)
    ledger.assert_drained()


# ----------------------------------------------------------------------
# Device grids: all-or-nothing
# ----------------------------------------------------------------------
def make_grid(ctx=None, gpus=None, page_size=None):
    ctx = ctx or make_ctx(parallel="ep=2")
    cluster = ctx.cluster_spec
    gpus = gpus or [cluster.device(d) for d in range(2)]
    return DeviceLedgers.create(ctx.config, ctx.engine.name, gpus,
                                ctx.parallel, page_size=page_size)


def test_wrap_ledger_dispatch():
    assert isinstance(wrap_ledger(make_tracker()), SanitizedLedger)
    wrapped = wrap_ledger(make_grid())
    assert isinstance(wrapped, SanitizedDeviceLedgers)
    assert all(isinstance(led, SanitizedLedger)
               for led in wrapped.ledgers)


def test_grid_all_or_nothing_admission_detected():
    grid = make_grid()

    class SkipsDeviceOne(DeviceLedgers):
        def admit(self, request_id, prompt_tokens, final_seq_len):
            self.ledgers[0].admit(request_id, prompt_tokens,
                                  final_seq_len)   # the bug: one device

    buggy = SkipsDeviceOne(ledgers=grid.ledgers)
    wrapped = SanitizedDeviceLedgers(buggy)
    with pytest.raises(SanitizerError, match="all-or-nothing admission"):
        wrapped.admit(1, 8, 12)


def test_grid_uneven_growth_detected():
    grid = make_grid()

    class GrowsUnevenly(DeviceLedgers):
        def grow_each(self, request_ids, new_tokens=1):
            self.ledgers[0].grow_each(request_ids, new_tokens)
            self.ledgers[1].grow_each(request_ids, new_tokens + 1)
            return len(request_ids)

    buggy = GrowsUnevenly(ledgers=grid.ledgers)
    wrapped = SanitizedDeviceLedgers(buggy)
    wrapped.admit(1, 8, 12)
    with pytest.raises(SanitizerError, match="bulk growth"):
        wrapped.grow_each((1,))


def test_healthy_grid_lifecycle_is_silent():
    wrapped = wrap_ledger(make_grid())
    wrapped.admit(1, 8, 12)
    wrapped.admit(2, 8, 12)
    wrapped.grow_each((1,), 4)
    wrapped.grow_each([2, 1], 4)
    wrapped.release(1)
    wrapped.release(2)
    wrapped.assert_drained()


# ----------------------------------------------------------------------
# Bulk growth: exactly the prefix that fits
# ----------------------------------------------------------------------
def tight(spec, ledger, blocks=8):
    """``spec`` shrunk so that ``ledger``'s pool holds ``blocks``
    one-block requests and half a block more."""
    pool_bytes = (blocks + 0.5) * ledger.peak_bytes(16)
    return spec.with_overrides(dram_capacity=int(
        (ledger.static_bytes + pool_bytes) / (1.0 - FRAGMENTATION)))


def fill(ledger):
    """Admit one-block requests until the pool is full; their ids.
    Each resident's next token then needs a block the pool lacks."""
    rids = []
    while ledger.can_admit_request(16, 32):
        ledger.admit(len(rids), 16, 32)
        rids.append(len(rids))
    return rids


class AdvancesPastRefusal(BlockAllocator):
    def grow_each(self, request_ids, new_tokens=1):
        grown = super().grow_each(request_ids, new_tokens)
        late = request_ids[grown + 1]
        self._context[late] += new_tokens   # the bug: grows past it
        self._resident_tokens += new_tokens
        return grown


class ChargesRefused(BlockAllocator):
    def grow_each(self, request_ids, new_tokens=1):
        grown = super().grow_each(request_ids, new_tokens)
        refused = request_ids[grown]
        self._blocks[refused] += 1          # the bug: charges it anyway
        self._used_blocks += 1
        self._charged_bytes += self.block_bytes(2) - self.block_bytes(1)
        return grown


@pytest.mark.parametrize("buggy,position", [
    (AdvancesPastRefusal, 1), (ChargesRefused, 0)])
def test_broken_bulk_growth_detected(buggy, position):
    ctx = make_ctx()
    ledger = SanitizedLedger(buggy(ctx.config, ctx.engine.name,
                                   tight(ctx.spec, make_allocator(ctx)),
                                   page_size=16))
    rids = fill(ledger)
    with pytest.raises(SanitizerError) as caught:
        ledger.grow_each(rids)               # refused at position 0
    assert caught.value.subject["request"] == rids[position]


class GridAdvancesPastRefusal(DeviceLedgers):
    def grow_each(self, request_ids, new_tokens=1):
        grown = super().grow_each(request_ids, new_tokens)
        for led in self.ledgers:            # the bug: on every device
            led._inner._context[request_ids[grown + 1]] += new_tokens
        return grown


class GridChargesRefused(DeviceLedgers):
    def grow_each(self, request_ids, new_tokens=1):
        grown = super().grow_each(request_ids, new_tokens)
        led = self.ledgers[-1]              # the bug: one device grows it
        led._inner._context[request_ids[grown]] += new_tokens
        return grown


@pytest.mark.parametrize("buggy,position", [
    (GridAdvancesPastRefusal, 1), (GridChargesRefused, 0)])
def test_broken_grid_bulk_growth_detected(buggy, position):
    ctx = make_ctx(parallel="ep=2")
    spec = tight(ctx.spec, make_grid(ctx, page_size=16))
    grid = make_grid(ctx, gpus=[spec, spec], page_size=16)
    wrapped = SanitizedDeviceLedgers(buggy(ledgers=grid.ledgers))
    rids = fill(wrapped)
    with pytest.raises(SanitizerError, match="bulk growth") as caught:
        wrapped.grow_each(rids)
    assert caught.value.subject["request"] == rids[position]


def test_spurious_refusal_detected():
    class StopsAtOne(BlockAllocator):
        def grow_each(self, request_ids, new_tokens=1):
            return super().grow_each(request_ids[:1], new_tokens)

    ctx = make_ctx()
    ledger = SanitizedLedger(StopsAtOne(ctx.config, ctx.engine.name,
                                        ctx.spec, page_size=16))
    ledger.admit(1, 8, 12)
    ledger.admit(2, 8, 12)
    with pytest.raises(SanitizerError, match="spurious refusal"):
        ledger.grow_each([1, 2])


def test_healthy_bulk_growth_is_silent():
    ctx = make_ctx()
    ledger = SanitizedLedger(BlockAllocator(
        ctx.config, ctx.engine.name, tight(ctx.spec, make_allocator(ctx)),
        page_size=16))
    rids = fill(ledger)
    assert ledger.grow_each(rids) == 0       # full: nothing fits
    ledger.release(rids.pop())
    grown = ledger.grow_each(rids)
    assert 0 < grown < len(rids)
    assert ledger.grow_each(rids[grown:], 0) == len(rids) - grown


# ----------------------------------------------------------------------
# Memo purity
# ----------------------------------------------------------------------
def make_pricer(check_every=1):
    ctx = make_ctx()
    popularity = zipf_expert_popularity(ctx.config.num_experts, 0.0)
    return SanitizedStepPricer(ctx, ctx.config.num_layers, popularity,
                               new_rng(0), check_every=check_every)


def plan_for(*rids, generated=2):
    decode = tuple(
        ActiveRequest(request=req(rid), admitted_s=0.0,
                      generated=generated, prefilled=True,
                      prefilled_tokens=8)
        for rid in rids)
    return StepPlan(decode=decode)


def test_memo_poisoning_detected():
    pricer = make_pricer(check_every=1)
    plan = plan_for(1, 2)
    pricer.price(plan)                   # healthy first price: silent
    # Poison the decode-projection memo the way a stale-key bug would.
    pricer._proj[2] *= 1.5
    with pytest.raises(SanitizerError, match="memo purity"):
        pricer.price(plan)


def test_component_memo_poisoning_detected():
    pricer = make_pricer(check_every=1)
    pricer.price(plan_for(1, 2))
    time_s, dataflow_s, winner = pricer._moe[2]  # poisoned component memo
    pricer._moe[2] = (time_s * 2, dataflow_s, winner)
    # The next 2-token step prices through the poisoned MoE
    # component; the fresh re-price computes it clean and diverges.
    with pytest.raises(SanitizerError, match="memo purity"):
        pricer.price(plan_for(3, 4, generated=3))


def test_healthy_pricing_is_silent_every_step():
    pricer = make_pricer(check_every=1)
    for batch in (1, 2, 3, 2, 1):
        pricer.price(plan_for(*range(batch)))


def test_check_every_samples():
    pricer = make_pricer(check_every=1000)
    pricer.price(plan_for(1))            # step 1 always checked
    pricer._proj[1] = 99.0
    pricer.price(plan_for(1))            # unsampled: poison unnoticed
    assert pricer._priced_steps == 2


# ----------------------------------------------------------------------
# Scheduling: victim order and queue order
# ----------------------------------------------------------------------
def contended_report(sanitize):
    """A chunked, paged ``priority_slack`` run past its KV knee: it
    preempts, and ``internal`` requests (priority 1) arrive behind
    queued priority-0 ones."""
    from repro.api import Deployment
    return Deployment.from_dict({
        "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                  "num_layers": 1},
        "hardware": {"gpu": "rtx4070s"},
        "serving": {"batcher": "chunked", "page_size": 16,
                    "scheduler": "priority_slack", "sanitize": sanitize},
        "workload": {
            "kind": "bursty", "requests": 48, "qps": 200.0,
            "burst_factor": 8.0, "burst_len": 20, "prompt_tokens": 2048,
            "output_tokens": 384, "jitter": 0.5, "seed": 5,
            "tenants": [
                {"name": "chat", "priority": 0, "share": 0.6,
                 "ttft_slo_s": 0.3, "tpot_slo_s": 0.05},
                {"name": "internal", "priority": 1, "share": 0.4},
            ],
        },
    }).run()


def test_wrong_victim_detected(monkeypatch):
    # The index evicts its *first* entry, the request the policy
    # protects most.
    monkeypatch.setattr(SlackIndex, "victim",
                        lambda self, clock: self._entries[0][-1])
    with pytest.raises(SanitizerError, match="victim order"):
        contended_report(sanitize=True)


def test_untold_resident_detected():
    # A resident the engine never added to the index.
    trace = poisson_trace(num_requests=2, rate_qps=40.0, seed=11)
    policy = YoungestFirst()
    running = [ActiveRequest(request=req, admitted_s=0.0)
               for req in trace]
    inner = policy.resident_index({}, {})
    inner.add(running[0])
    index = SanitizedResidentIndex(inner, running, policy, {}, {})
    with pytest.raises(SanitizerError, match="victim order"):
        index.victim(1.0)
    index.add(running[1])
    assert index.victim(1.0) is running[1]


def test_unordered_queue_detected(monkeypatch):
    # Arrivals and requeued victims join the tail, first come first
    # served, instead of their queue_key position.
    monkeypatch.setattr(QueueOrder, "insert",
                        lambda self, waiting, req: waiting.append(req))
    with pytest.raises(SanitizerError, match="queue order"):
        contended_report(sanitize=True)


def test_healthy_scheduling_is_silent():
    assert contended_report(sanitize=True).preemptions > 0


# ----------------------------------------------------------------------
# End to end: byte-identity and env-var opt-in
# ----------------------------------------------------------------------
def report_json(ctx, **kwargs):
    trace = poisson_trace(num_requests=24, rate_qps=40.0, seed=11)
    report = ServingEngine(ctx=ctx, **kwargs).run(trace)
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize("ctx_kwargs,kwargs", [
    ({}, {}),
    ({}, {"page_size": 16}),
    ({}, {"batcher_name": "chunked"}),
    ({"parallel": "ep=2"}, {"seed": 3}),
    ({"engine": "auto"}, {}),
], ids=["plain", "paged", "chunked", "distributed", "auto"])
def test_sanitized_report_byte_identical(ctx_kwargs, kwargs):
    ctx = ExecutionContext.create(MODEL, **ctx_kwargs)
    kwargs = dict(kwargs)
    if kwargs.pop("batcher_name", None) == "chunked":
        from repro.serve.batcher import ChunkedPrefillBatcher
        kwargs["batcher"] = ChunkedPrefillBatcher()
    assert (report_json(ctx, **kwargs)
            == report_json(ctx, sanitize=True, **kwargs))


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    ctx = make_ctx()
    pool = ServingEngine(ctx=ctx).pool
    assert pool.sanitize is True
    assert isinstance(pool.pricer, SanitizedStepPricer)
    monkeypatch.delenv("REPRO_SANITIZE")
    assert ServingEngine(ctx=ctx).pool.sanitize is False


def test_spec_sanitize_field_round_trips():
    from repro.api import DeploymentSpec
    spec = DeploymentSpec.from_dict({"serving": {"sanitize": True}})
    assert spec.serving.sanitize is True
    assert DeploymentSpec.from_dict(spec.to_dict()) == spec
    engine = __import__("repro.api.deployment", fromlist=["Deployment"]
                        ).Deployment(spec).build_engine()
    assert engine.pool.sanitize is True
