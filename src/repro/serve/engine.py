"""Discrete-event serving core over the per-layer cost stack.

One event loop, :class:`ServingLoop`, serves a trace across a list of
GPU pools off one event calendar (:mod:`repro.serve.events`): a
heap-ordered queue of typed events —
:class:`~repro.serve.events.Arrival`,
:class:`~repro.serve.events.StepComplete`,
:class:`~repro.serve.events.Preempt`,
:class:`~repro.serve.events.HorizonExpired`,
:class:`~repro.serve.events.RateRefill`,
:class:`~repro.serve.events.KVTransfer` — with an
:class:`~repro.serve.events.EventManager` that owns the clock.  A
:class:`Pool` is one model server: an execution context, a batcher and
a memoising :class:`~repro.serve.costs.StepPricer`, plus per run a
memory ledger and the pool's queues.  At each step boundary of an idle
pool its batcher composes the step (admissions + decodes), the pricer
prices its duration with the prefill/decode cost split from
:mod:`repro.models` — scaled by ``num_layers`` to a full-model forward
— and a ``StepComplete`` event naming the pool is scheduled; its
handler applies the plan's lifecycle effects when the clock reaches
it.  Request timestamps fall out of the clock.

Two front doors drive the loop.  :class:`ServingEngine` is colocated
serving: one pool serving both phases, on which routing and KV
migration never fire.
:class:`~repro.serve.disagg.engine.DisaggServingEngine` serves prefill
and decode pools: arrivals are routed to a prefill-capable pool, a
prompt that finishes prefilling on a prefill-only pool migrates its KV
blocks to a decode-capable pool, and a decode-only pool's eviction is
re-routed to a prefill pool for recompute.

Memory is charged through a
:class:`~repro.moe.memory_model.MemoryLedger` — the conservative
peak-reserving :class:`~repro.moe.memory_model.KVCacheTracker` by
default, or the paged :class:`~repro.moe.memory_model.BlockAllocator`
when ``page_size`` is set — so each engine's sustainable concurrency
(and therefore its saturation QPS) emerges from the same footprint
model that reproduces Table 3.

Under paged allocation a decode step can fail to allocate its next KV
block; the engine then *preempts* the youngest resident request
(latest arrival): its blocks are released and the request returns to
the front of the waiting queue to be recomputed on readmission
(vLLM's recompute preemption).  Generation restarts from the prompt,
but the request's first recorded TTFT is kept.  Preemptions surface as
:class:`~repro.serve.events.Preempt` events dispatched at the instant
they happen.

Inside a step, the MoE layer can optionally be priced through the
expert-segment LPT scheduler (``streams > 1`` on a Samoyeds context):
per-expert loads are drawn from the routing-skew profile and the
segments are packed onto streams, replacing the sequential segment sum
of the engine cost model while keeping its data-flow overheads.

On a context with a non-trivial
:class:`~repro.hw.interconnect.ParallelPlan` the pool shards over an
``ep x tp`` device grid: experts are placed on devices (skew-aware by
default), each step is the slowest device's makespan plus the boundary
collectives (TP all-reduces, EP dispatch/combine all-to-alls), and
memory runs through one ledger per device
(:class:`~repro.moe.memory_model.DeviceLedgers`) with admission gated
on the bottleneck device.

``tests/test_serve_golden.py`` pins the calendar core byte-identical
to the reports of the pre-calendar nested-``while`` loop it replaced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.context import ExecutionContext
from repro.errors import CapacityError, ConfigError, InternalError
from repro.analysis.sanitizer import (
    KVTransferAuditor,
    SanitizedEventManager,
    SanitizedStepPricer,
    sanitize_enabled,
    wrap_ledger,
)
from repro.hw.interconnect import LinkSpec
from repro.moe.memory_model import (
    BlockAllocator,
    DeviceLedgers,
    KVCacheTracker,
    MemoryLedger,
    kv_cache_bytes,
)
from repro.moe.scheduler import place_experts
from repro.moe.trace import zipf_expert_popularity
from repro.registry.selector import AutoEngine
from repro.serve.batcher import (
    ActiveRequest,
    Batcher,
    ContinuousBatcher,
    StepPlan,
)
from repro.serve.costs import StepPricer
from repro.serve.events import (
    CLOCK_EPS,
    Arrival,
    EventKind,
    EventManager,
    HorizonExpired,
    KVTransfer,
    Preempt,
    RateRefill,
    StepComplete,
)
from repro.serve.metrics import (
    MetricsCollector,
    RequestRecord,
    ServeReport,
    StepSample,
    summarise,
)
from repro.workloads.traces import Request, validate_trace
from repro.serve.scheduling import AdmissionGate, make_scheduler
from repro.utils.rng import new_rng
from repro.workloads.tenants import TenantSpec, validate_tenants

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.serve.disagg.routers import RouterPolicy

#: Phase roles a pool can serve.  ``both`` is the colocated role: a
#: request that prefills on a ``both`` pool decodes there too (no KV
#: transfer), which is what makes a one-pool run colocated serving.
POOL_ROLES = ("prefill", "decode", "both")


def _arrival_order(ar: ActiveRequest) -> tuple[float, int]:
    return (ar.request.arrival_s, ar.request.rid)


class Pool:
    """One GPU pool: a model server for one or both serving phases.

    What lives as long as the pool is built here: the context, the
    batcher, the expert placement and the memoising
    :class:`~repro.serve.costs.StepPricer` (whose memos and RNG carry
    across runs).  :meth:`start` gives every run a fresh memory
    ledger, queues (``waiting``, ``running``), in-flight plan, transfer
    bookkeeping (``outbound``, ``inbound_tokens``) and report
    statistics, which :class:`ServingLoop` reads and updates.

    Args:
        ctx: Execution context (model, engine, device, parallel plan).
        batcher: Step-composition policy (one per pool: the loop sets
            its admission gate).
        name: Pool identifier: keys the disaggregated ``pools`` report
            section and names KV-transfer endpoints.
        role: Phase(s) served, one of :data:`POOL_ROLES`.
        num_layers, routing_skew, seed, page_size, placement_policy,
        sanitize: As on :class:`ServingEngine`.
    """

    def __init__(self, ctx: ExecutionContext, batcher: Batcher, *,
                 name: str = "colocated", role: str = "both",
                 num_layers: int | None = None, routing_skew: float = 0.0,
                 seed: int | None = None, page_size: int | None = None,
                 placement_policy: str = "balanced",
                 sanitize: bool | None = None) -> None:
        if role not in POOL_ROLES:
            raise ConfigError(
                f"pool {name!r} role must be one of "
                f"{', '.join(POOL_ROLES)}; got {role!r}")
        self.ctx = ctx
        self.batcher = batcher
        self.name = name
        self.role = role
        self.serves_prefill = role != "decode"
        self.serves_decode = role != "prefill"
        self.layers = (ctx.config.num_layers if num_layers is None
                       else num_layers)
        if self.layers <= 0:
            raise ConfigError("num_layers must be positive")
        if page_size is not None and page_size <= 0:
            raise ConfigError("page_size must be positive")
        self.page_size = page_size
        parallel = ctx.parallel
        if parallel.dp > 1:
            raise ConfigError(
                "data-parallel serving is not modeled; run one engine "
                "per replica (ep/tp shard a single replica)")
        popularity = zipf_expert_popularity(ctx.config.num_experts,
                                            routing_skew)
        #: The device topology of a multi-device pool (``None`` on one
        #: GPU) and its expert placement (``None`` without ep).
        self.cluster = None if parallel.is_trivial else ctx.cluster_spec
        self.placement = None
        if self.cluster is not None and parallel.ep > 1:
            self.placement = place_experts(
                ctx.config.num_experts, parallel.ep,
                policy=placement_policy, profile=popularity)
        self.sanitize = sanitize_enabled(sanitize)
        pricer_cls = SanitizedStepPricer if self.sanitize else StepPricer
        self.pricer = pricer_cls(ctx, self.layers, popularity,
                                 new_rng(seed), placement=self.placement,
                                 cluster=self.cluster)

    def make_ledger(self) -> "MemoryLedger | DeviceLedgers":
        """A fresh memory ledger: one per device on a device grid,
        else paged (``page_size`` set) or conservative."""
        ctx = self.ctx
        cluster = self.cluster
        if cluster is not None:
            parallel = ctx.parallel
            gpus = [cluster.device(d % cluster.num_devices)
                    for d in range(parallel.ep * parallel.tp)]
            counts = (self.placement.counts()
                      if self.placement is not None else None)
            return DeviceLedgers.create(
                ctx.config, ctx.engine.name, gpus, parallel,
                expert_counts=counts, page_size=self.page_size)
        if self.page_size:
            return BlockAllocator(ctx.config, ctx.engine.name, ctx.spec,
                                  page_size=self.page_size)
        return KVCacheTracker(ctx.config, ctx.engine.name, ctx.spec)

    def start(self, index: int, sanitize: bool) -> None:
        """Reset the per-run state.  ``index`` is the pool's position
        in the run's pool list, the ``pool`` of its
        :class:`StepComplete` events."""
        self.index = index
        self.raw_ledger = self.make_ledger()
        self.ledger = (wrap_ledger(self.raw_ledger) if sanitize
                       else self.raw_ledger)
        self.waiting: deque[Request] = deque()
        self.running: list[ActiveRequest] = []
        #: The plan of the step in flight (at most one per pool).
        self.in_flight: StepPlan | None = None
        #: Requests mid-transfer *out* of this pool: their KV bytes are
        #: still charged here until the transfer completes.
        self.outbound: dict[int, ActiveRequest] = {}
        #: Decode tokens en route to this pool by migration (load
        #: signal for the routers; settled when the transfer lands).
        self.inbound_tokens = 0
        self.steps = 0
        self.busy_s = 0.0
        self.comm_s = 0.0
        self.prefills = 0
        self.finished = 0
        self.ttft_values: list[float] = []
        self.tpot_values: list[float] = []
        self.peak_util = 0.0
        # The uneventful-decode fast path's proof holds on plain
        # continuous batching (the plan is exactly
        # ``decode=tuple(running)``), conservative admission (growth
        # never fails, so no preemption), a fixed single-device engine
        # and a deterministic pricer (no RNG draw per step).
        self.fast_eligible = (type(self.batcher) is ContinuousBatcher
                              and type(self.ledger) is KVCacheTracker
                              and not self.pricer.stochastic
                              and not isinstance(self.ctx.engine,
                                                 AutoEngine)
                              and not self.sanitize)

    @property
    def outstanding_tokens(self) -> int:
        """Router load signal: queued + still-to-generate + inbound."""
        tokens = sum(r.total_tokens for r in self.waiting)
        tokens += sum(max(ar.request.total_tokens - ar.context_tokens, 0)
                      for ar in self.running)
        return tokens + self.inbound_tokens

    def fast_decode_run(self, manager: EventManager,
                        samples: list[StepSample], max_steps: int) -> int:
        """Commit a run of provably uneventful pure-decode steps.

        The discrete-event payoff: when the calendar can prove the next
        step is a pure decode step whose completion dispatches nothing
        — no arrival inside the epsilon window, no horizon, nobody
        reaching their output length, nothing waiting to admit — the
        general path's outcome is fully determined, and runs of such
        steps reduce to the pricing arithmetic plus a metrics sample.

        Every committed step replays, float op for float op, what the
        general path would have done: the same pricing composition as
        :meth:`StepPricer._price` for a decode-only plan, the same
        ``max(clock, clock + step_s)`` clock update, the same per-step
        sample values (``live_bytes`` from the ledger's resident-token
        total, every running request one token further per step).
        Only the work whose outcome is already known is skipped —
        planning, per-token ledger growth (bulk-applied afterwards),
        the preemption machinery and the finish scan.  Stops *before*
        any step boundary where an event could be due, leaving that
        step to the general path.  Commits at most ``max_steps`` steps
        and returns how many it committed.  Only sound when this pool
        is the run's only pool and :attr:`fast_eligible` holds.
        """
        running = self.running
        if not running or not all(ar.prefilled for ar in running):
            return 0
        # The step in which the earliest finisher reaches its output
        # length must run through the general path.
        limit = min(ar.request.output_tokens - ar.generated
                    for ar in running) - 1
        limit = min(limit, max_steps)
        if limit <= 0:
            return 0
        pricer = self.pricer
        ledger = self.ledger
        batch = len(running)
        context_tokens = sum(ar.context_tokens for ar in running)
        moe_s = pricer.moe_seconds(batch)
        norm_s = pricer.norm_seconds(batch)
        layers = self.layers
        config, spec = self.ctx.config, self.ctx.spec
        static_bytes = ledger.static_bytes
        resident_tokens = ledger.resident_tokens
        reserved_bytes = ledger.reserved_bytes
        util = ledger.pool_utilisation
        residents = ledger.active_requests
        # The queue cannot change inside the run (fast steps push no
        # events), so the barrier — the earliest event that could
        # become due at a step boundary — is a constant.
        head = manager.queue.peek()
        barrier = head.when if head is not None else None
        # Inline the flash decode-attention arithmetic (the same float
        # ops as decode_attention_cost, minus the call and the
        # AttentionCost object); the rare flash=False context keeps the
        # function call.
        flash = self.ctx.flash
        if flash:
            proj_s = pricer.decode_proj(batch)
            h = config.hidden_size
            ccf = spec.cuda_core_flops
            bw = spec.dram_bandwidth
            launch_s = spec.kernel_launch_overhead_s
        observe = samples.append
        busy_s = self.busy_s
        clock = manager.clock
        committed = 0
        while committed < limit:
            if flash:
                flops = 2.0 * 2.0 * context_tokens * h
                attn = 0.0 + ((proj_s + max(flops / ccf, flops / bw))
                              + launch_s)
            else:
                attn = 0.0 + pricer.decode_attn(context_tokens, batch)
            step_s = (attn + moe_s + norm_s) * layers
            when = clock + step_s
            if barrier is not None and barrier <= when + CLOCK_EPS:
                break              # something is due at this boundary
            committed += 1
            clock = clock if clock >= when else when
            busy_s += step_s
            context_tokens += batch
            live_bytes = static_bytes + kv_cache_bytes(
                config, resident_tokens + committed * batch)
            observe(StepSample(clock, 0, residents, batch, live_bytes,
                               reserved_bytes, util, 0.0, step_s))
        if not committed:
            return 0
        self.busy_s = busy_s
        manager.clock = clock
        for ar in running:
            ar.generated += committed
            ledger.grow(ar.request.rid, committed)
        return committed

    def cluster_report(self) -> dict[str, object] | None:
        """Multi-device report section of the last run (``None`` on a
        single GPU)."""
        cluster = self.cluster
        if cluster is None:
            return None
        info: dict[str, object] = {
            "parallel": self.ctx.parallel.to_dict(),
            "cluster": cluster.describe(),
            "link": cluster.link.name,
            "comm_s_total": self.comm_s,
            "comm_fraction": (self.comm_s / self.busy_s
                              if self.busy_s > 0 else 0.0),
        }
        if self.placement is not None:
            info["placement_policy"] = self.placement.policy
            info["experts_per_device"] = list(self.placement.counts())
        info["per_device_static_bytes"] = [
            led.static_bytes for led in self.raw_ledger.ledgers]
        return info


@dataclass
class ServedRun:
    """What one pass of :meth:`ServingLoop.run` leaves for the report
    (per-pool statistics stay on the pools)."""

    collector: MetricsCollector
    #: Every request's record, finished or not, in trace order.
    records: list[RequestRecord]
    #: Auto-dispatch section: the engine the cost-driven selector
    #: dispatched each phase to (``None`` unless a pool runs ``auto``).
    auto: dict[str, object] | None = None
    #: Completed KV transfers: count, bytes, link seconds, and link
    #: seconds per migrated request (summed over re-migrations).
    transfers: int = 0
    transfer_bytes: float = 0.0
    transfer_s: float = 0.0
    transfer_s_by_rid: dict[int, float] = field(default_factory=dict)


class ServingLoop:
    """The one event loop: serves a trace across a list of pools.

    Holds the run-level settings both front doors validate at
    construction — tenant classes, the scheduling policy and the
    serving horizon — while :meth:`run` takes the pools, plus the
    router and transfer link a multi-pool run needs.
    """

    def __init__(self, tenants: Sequence[TenantSpec] = (),
                 scheduler: str = "youngest_first",
                 horizon_s: float | None = None) -> None:
        self.tenants = tuple(tenants)
        validate_tenants(self.tenants)
        self.policy = make_scheduler(scheduler)
        if horizon_s is not None and horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")
        self.horizon_s = horizon_s

    def run(self, pools: Sequence[Pool], trace: Sequence[Request], *,
            router: "RouterPolicy | None" = None,
            link: LinkSpec | None = None,
            max_steps: int = 1_000_000) -> ServedRun:
        """Serve ``trace`` across ``pools`` until it is served (or the
        horizon cuts it).

        A phase with one candidate pool needs no routing decision;
        ``router`` (fresh per run: routers are run state) picks among
        several, and ``link`` prices the KV transfers out of
        prefill-only pools.
        """
        validate_trace(trace)
        sanitize = any(pool.sanitize for pool in pools)
        for index, pool in enumerate(pools):
            pool.start(index, sanitize)
        records = {req.rid: RequestRecord(req) for req in trace}
        collector = MetricsCollector()
        served = ServedRun(collector, list(records.values()))
        manager = SanitizedEventManager() if sanitize else EventManager()
        queue = manager.queue
        auditor = KVTransferAuditor() if sanitize else None
        policy = self.policy
        table = {t.name: t for t in self.tenants}
        # Stable name order everywhere scheduling iterates pools: the
        # deterministic half of the routers' ``(pool_name, rid)``
        # tie-break.
        sched = sorted(pools, key=lambda p: p.name)
        prefill_pools = [p for p in sched if p.serves_prefill]
        decode_pools = [p for p in sched if p.serves_decode]
        npools = len(pools)
        fast = pools[0] if npools == 1 and pools[0].fast_eligible else None

        # Token-rate admission gate: fresh per run (bucket levels are
        # run state).  ``None`` when no tenant declares a rate limit,
        # which keeps the admission path allocation-free.
        gate = AdmissionGate(table) if table else None
        if gate is not None and not gate:
            gate = None
        for pool in pools:
            pool.batcher.admission_gate = gate
        for req in sorted(trace, key=lambda r: (r.arrival_s, r.rid)):
            queue.push(Arrival(when=req.arrival_s, request=req))
        if self.horizon_s is not None:
            queue.push(HorizonExpired(when=self.horizon_s))

        steps = 0
        #: Pools with a step in flight.
        flying = 0
        #: rid -> (active request, source pool, destination pool) of
        #: every KV transfer currently on the wire.
        migrating: dict[int, tuple[ActiveRequest, Pool, Pool]] = {}
        #: Migrations blocked on destination admission, retried in
        #: stable (arrival_s, rid) order whenever capacity frees.
        pending: list[tuple[ActiveRequest, Pool]] = []
        auto_counts: dict[str, dict[str, int]] = {}

        def route(candidates: list[Pool], req: Request,
                  phase: str) -> Pool:
            if len(candidates) == 1:
                return candidates[0]
            return router.select(candidates, req, table.get(req.tenant),
                                 phase)

        def victim_key(ar: ActiveRequest):
            return policy.victim_key(ar, manager.clock,
                                     records.get(ar.request.rid),
                                     table.get(ar.request.tenant))

        def evict(pool: Pool, victim: ActiveRequest,
                  evicted: set[int]) -> None:
            """Preempt ``victim``: free its blocks, requeue it for
            recompute.

            A prefill-capable pool requeues it at its own queue head; a
            decode-only pool cannot recompute, so the victim re-routes
            to a prefill pool's.  The :class:`Preempt` event dispatches
            immediately at the current clock — preemption is a
            same-instant consequence of the completing step, not a
            scheduled future."""
            req = victim.request
            pool.ledger.release(req.rid)
            pool.running.remove(victim)
            home = (pool if pool.serves_prefill
                    else route(prefill_pools, req, "prefill"))
            home.waiting.appendleft(req)
            evicted.add(req.rid)
            manager.emit(Preempt(when=manager.clock, victim_rid=req.rid,
                                 tenant=req.tenant))

        def grow(pool: Pool, ar: ActiveRequest, evicted: set[int]) -> bool:
            """Charge one token of KV growth for ``ar``, preempting the
            scheduling policy's preferred victim until it fits — the
            youngest resident request (latest arrival) under the
            default policy, the lowest-priority / most-slack one under
            ``priority_slack``.

            Returns ``False`` when ``ar`` itself was the victim and got
            evicted; raises :class:`CapacityError` when ``ar`` cannot
            grow even with the pool to itself (unless transfers out of
            the pool will free bytes when they land: then ``ar``
            recomputes later).
            """
            ledger = pool.ledger
            while True:
                try:
                    ledger.grow(ar.request.rid)
                    return True
                except CapacityError:
                    running = pool.running
                    victim = max(running, key=victim_key)
                    if (victim is ar and len(running) == 1
                            and not pool.outbound):
                        total_tokens = ar.request.total_tokens
                        raise CapacityError(
                            f"request {ar.request.rid} "
                            f"({total_tokens} tokens) "
                            f"exceeds device memory even alone on "
                            f"{pool.ctx.spec.name} with "
                            f"{pool.ctx.engine.name}",
                            required_bytes=int(
                                ledger.peak_bytes(total_tokens)),
                            available_bytes=int(ledger.budget_bytes
                                                - ledger.static_bytes))
                    evict(pool, victim, evicted)
                    if victim is ar:
                        return False

        def first_token(pool: Pool, ar: ActiveRequest,
                        record: RequestRecord, clock: float) -> None:
            """``ar``'s prompt is fully prefilled: token one is out."""
            ar.prefilled = True
            ar.generated = 1
            pool.prefills += 1
            if record.first_token_s is None:
                record.first_token_s = clock
                pool.ttft_values.append(clock - ar.request.arrival_s)

        def migrate(ar: ActiveRequest, src: Pool) -> bool:
            """Start ``ar``'s KV transfer out of ``src`` if the decode
            pool routed to can admit it now; charge the destination
            and schedule the :class:`KVTransfer` completion."""
            req = ar.request
            dst = route(decode_pools, req, "decode")
            ledger = dst.ledger
            if not ledger.can_admit_request(ar.context_tokens,
                                            req.total_tokens):
                return False
            if auditor is not None:
                live0_bytes = ledger.live_bytes
            ledger.admit(req.rid, ar.context_tokens, req.total_tokens)
            if auditor is not None:
                # Full-model KV bytes: the cluster live-bytes sum is
                # ep x the model's KV (tp shards cancel in the sum).
                auditor.transfer_started(
                    req.rid, src.name, dst.name,
                    charged_bytes=((ledger.live_bytes - live0_bytes)
                                   / dst.ctx.parallel.ep))
            nbytes = kv_cache_bytes(src.ctx.config,
                                    ar.context_tokens) * src.layers
            transfer_s = link.transfer_seconds(nbytes)
            queue.push(KVTransfer(when=manager.clock + transfer_s,
                                  transfer_rid=req.rid,
                                  src_pool=src.name, dst_pool=dst.name,
                                  nbytes=nbytes, transfer_s=transfer_s))
            migrating[req.rid] = (ar, src, dst)
            src.outbound[req.rid] = ar
            dst.inbound_tokens += max(req.total_tokens
                                      - ar.context_tokens, 0)
            return True

        def retry_migrations() -> None:
            blocked = sorted(pending,
                             key=lambda item: _arrival_order(item[0]))
            pending.clear()
            for ar, src in blocked:
                if not migrate(ar, src):
                    pending.append((ar, src))

        def stuck() -> tuple[Request, Pool]:
            """The request to blame for a starved run and the pool that
            can never fit it: an unfinished partial prefill (it holds
            the blocks); else a blocked migration (on the decode pool
            it routes to); else the first waiting head."""
            for pool in sched:
                for ar in pool.running:
                    if not ar.prefilled:
                        return ar.request, pool
            if pending:
                req = pending[0][0].request
                return req, route(decode_pools, req, "decode")
            for pool in sched:
                if pool.waiting:
                    return pool.waiting[0], pool
            raise InternalError("starved run with no stuck request")

        # -- handlers ---------------------------------------------------
        def on_arrival(event: Arrival) -> None:
            req = event.request
            if gate is not None and not gate.admissible(req):
                # Larger than its tenant's bucket capacity: no amount
                # of waiting admits it.  Reject at the door.
                collector.reject(req.tenant)
                return
            route(prefill_pools, req, "prefill").waiting.append(req)

        def on_preempt(event: Preempt) -> None:
            collector.preempt(event.tenant)

        def on_horizon(event: HorizonExpired) -> None:
            manager.stop()             # plan no further steps

        def on_rate_refill(event: RateRefill) -> None:
            pass    # wake-up only: planning resumes in the main loop

        def on_kv_transfer(event: KVTransfer) -> None:
            rid = event.transfer_rid
            ar, src, dst = migrating.pop(rid)
            del src.outbound[rid]
            if auditor is not None:
                live0_bytes = src.ledger.live_bytes
            src.ledger.release(rid)
            if auditor is not None:
                auditor.transfer_completed(
                    rid,
                    released_bytes=((live0_bytes - src.ledger.live_bytes)
                                    / src.ctx.parallel.ep),
                    src_ledger=src.ledger, dst_ledger=dst.ledger)
            dst.running.append(ar)
            dst.inbound_tokens -= max(ar.request.total_tokens
                                      - ar.context_tokens, 0)
            by_rid = served.transfer_s_by_rid
            by_rid[rid] = by_rid.get(rid, 0.0) + event.transfer_s
            served.transfers += 1
            served.transfer_bytes += event.nbytes
            served.transfer_s += event.transfer_s
            # The source just freed KV bytes: blocked migrations out of
            # other pools may now fit elsewhere, and blocked *local*
            # admissions retry at the next planning pass.
            if pending:
                retry_migrations()

        def on_step_complete(event: StepComplete) -> None:
            nonlocal flying
            pool = pools[event.pool]
            plan = pool.in_flight
            pool.in_flight = None
            flying -= 1
            clock = manager.clock
            pool.busy_s += event.step_s
            pool.comm_s += event.comm_s
            ledger = pool.ledger
            running = pool.running
            evicted: set[int] = set()
            # Every ledger-charged request must be resident before any
            # growth, so preemption can see (and evict) all of them.
            running.extend(plan.prefill)
            # Decode growth first, oldest arrivals first: under paged
            # allocation the block that backs a new token may require
            # preempting the youngest resident request.
            for ar in sorted(plan.decode, key=_arrival_order):
                if ar.request.rid in evicted:
                    continue
                ar.generated += 1
                grow(pool, ar, evicted)
            for ar in plan.prefill:            # prompt + first token
                record = records[ar.request.rid]
                if record.admitted_s is None:
                    record.admitted_s = ar.admitted_s
                if ar.request.rid in evicted:
                    continue
                ar.prefilled_tokens = ar.request.prompt_tokens
                first_token(pool, ar, record, clock)
                grow(pool, ar, evicted)
            for chunk in plan.chunks:          # chunked prefill slices
                ar = chunk.ar
                record = records[ar.request.rid]
                if record.admitted_s is None:
                    record.admitted_s = ar.admitted_s
                if ar.request.rid in evicted:
                    continue
                ar.prefilled_tokens += chunk.tokens
                if ar.prefilled_tokens >= ar.request.prompt_tokens:
                    first_token(pool, ar, record, clock)   # last chunk
                    grow(pool, ar, evicted)
            if not pool.serves_decode:
                # Prompts that finished prefilling here must decode
                # elsewhere: start (or queue) their KV migration.
                movers = sorted((ar for ar in running
                                 if ar.prefilled and not ar.finished),
                                key=_arrival_order)
                for ar in movers:
                    running.remove(ar)
                    if not migrate(ar, pool):
                        pending.append((ar, pool))
            # Arrivals that landed during (or epsilon-past) the step
            # join the queue before the sample, so queue-depth
            # percentiles see them; a coinciding horizon sets the stop
            # flag here but never suppresses the sample below.
            manager.dispatch_due()
            util = ledger.pool_utilisation
            if util > pool.peak_util:
                pool.peak_util = util
            collector.observe(StepSample(
                clock_s=clock,
                queue_depth=len(pool.waiting),
                running=ledger.active_requests,
                step_tokens=plan.total_tokens,
                live_bytes=ledger.live_bytes,
                reserved_bytes=ledger.reserved_bytes,
                pool_util=util,
                comm_s=event.comm_s,
                step_s=event.step_s,
            ))
            for ar in [ar for ar in running if ar.finished]:
                running.remove(ar)
                ledger.release(ar.request.rid)
                record = records[ar.request.rid]
                record.finished_s = clock
                collector.finish(record)
                pool.finished += 1
                pool.tpot_values.append(record.tpot_s)
            if pending:
                retry_migrations()

        manager.on(EventKind.ARRIVAL, on_arrival)
        manager.on(EventKind.PREEMPT, on_preempt)
        manager.on(EventKind.HORIZON_EXPIRED, on_horizon)
        manager.on(EventKind.STEP_COMPLETE, on_step_complete)
        manager.on(EventKind.RATE_REFILL, on_rate_refill)
        manager.on(EventKind.KV_TRANSFER, on_kv_transfer)

        while True:
            # Same-instant events first: arrivals within the epsilon
            # of the clock, a horizon the clock has reached.
            manager.dispatch_due()
            if flying == npools:
                # Every pool is mid-step: advance to the next completion
                # (or to whatever precedes it).
                manager.advance()
                continue
            if manager.stopped:
                if not (flying or migrating):
                    break              # horizon reached: stop serving
                # In-flight steps and transfers complete fully; the
                # stop flag only gates planning.
                manager.advance()
                continue
            if not (flying or migrating or pending
                    or queue.pending_arrivals
                    or any(p.waiting or p.running for p in pools)):
                break                  # trace fully served
            if fast is not None and not fast.waiting:
                committed = fast.fast_decode_run(
                    manager, collector.samples, max_steps - steps)
                if committed:
                    steps += committed
                    continue
            planned = False
            for pool in sched:
                if pool.in_flight is not None or not (pool.waiting
                                                      or pool.running):
                    continue
                waiting = pool.waiting
                if policy.reorders_queue and len(waiting) > 1:
                    # Stable sort: FCFS within a priority class survives.
                    ordered = sorted(
                        waiting,
                        key=lambda r: policy.queue_key(r,
                                                       table.get(r.tenant)))
                    waiting.clear()
                    waiting.extend(ordered)
                plan = pool.batcher.plan_step(
                    manager.clock, waiting, pool.running, pool.ledger,
                    bool(queue.pending_arrivals))
                if plan.empty:
                    continue
                steps += 1
                if steps > max_steps:
                    raise ConfigError(f"exceeded {max_steps} steps; trace "
                                      f"too large or engine starved")
                step_s, comm_s, winner = pool.pricer.price(plan)
                if winner is not None:
                    phase = ("prefill" if (plan.prefill or plan.chunks)
                             else "decode")
                    counts = auto_counts.setdefault(phase, {})
                    counts[winner] = counts.get(winner, 0) + 1
                pool.in_flight = plan
                pool.steps += 1
                flying += 1
                queue.push(StepComplete(when=manager.clock + step_s,
                                        step_s=step_s, comm_s=comm_s,
                                        pool=pool.index))
                planned = True
            if planned:
                continue
            if flying or migrating or queue.pending_arrivals:
                manager.advance()      # idle until the next event
                continue
            if gate is not None:
                # A queue head may be rate-throttled rather than
                # memory-blocked: schedule a wake-up at the instant its
                # tenant's bucket has refilled enough.
                woke = False
                for pool in sched:
                    if not pool.waiting:
                        continue
                    wake_s = gate.next_admit_s(manager.clock,
                                               pool.waiting[0])
                    if wake_s is not None:
                        queue.push(RateRefill(when=wake_s))
                        woke = True
                if woke:
                    manager.advance()
                    continue
            req, pool = stuck()
            ledger = pool.ledger
            raise CapacityError(
                f"request {req.rid} ({req.total_tokens} tokens) can "
                f"never fit on {pool.ctx.spec.name} with "
                f"{pool.ctx.engine.name}",
                required_bytes=int(ledger.peak_bytes(req.total_tokens)),
                available_bytes=int(ledger.budget_bytes
                                    - ledger.static_bytes))

        if sanitize and not manager.stopped:
            # A fully served trace must leave every ledger at its
            # static charge and no transfer on the wire (horizon runs
            # legitimately end with residents).
            for pool in pools:
                pool.ledger.assert_drained()
            auditor.assert_drained()
        if any(isinstance(pool.ctx.engine, AutoEngine) for pool in pools):
            served.auto = {
                "selected": {
                    phase: max(counts.items(),
                               key=lambda kv: (kv[1], kv[0]))[0]
                    for phase, counts in auto_counts.items()},
                "steps": {phase: dict(counts)
                          for phase, counts in auto_counts.items()}}
        return served


@dataclass
class ServingEngine:
    """Colocated serving: one simulated model server.

    The front door for the one-pool case of :class:`ServingLoop`: a
    single :class:`Pool` (exposed as ``pool``) serving both phases.

    Attributes:
        ctx: Execution context (model, engine, device, stream count).
        batcher: Step-composition policy (continuous by default).
        num_layers: Decoder layers per forward; ``None`` uses the
            model's layer count (full-model steps), ``1`` reproduces the
            paper's single-layer protocol.
        routing_skew: Zipf skew of the per-step expert loads used by the
            LPT segment scheduler when ``ctx.streams > 1``.
        seed: RNG seed for the per-step routing draws.
        page_size: KV-cache page size in tokens.  ``None`` (default)
            keeps the conservative whole-request reservation; a positive
            value switches to the paged :class:`BlockAllocator` with
            preemption on block exhaustion.
        horizon_s: Optional serving horizon: the event loop stops at the
            first step boundary at or past this clock value, leaving
            in-flight requests unfinished (the report stays well-formed
            even when *nothing* completed).
        placement_policy: Expert-to-device placement under expert
            parallelism (``balanced`` uses the routing-skew profile,
            ``round_robin`` ignores it).
        tenants: Multi-tenant request classes
            (:class:`~repro.workloads.tenants.TenantSpec`): declares
            per-tenant priorities, TTFT/TPOT SLOs and token-rate
            limits, and switches the report to carry a per-tenant
            section.  Empty (default) keeps the single-tenant
            behaviour byte-identical to the goldens.
        scheduler: Preemption/queue-order policy
            (:data:`~repro.serve.scheduling.SCHEDULER_NAMES`):
            ``youngest_first`` (default, the historical byte-identical
            order) or ``priority_slack`` (evict low priority / most
            SLO slack first and admit high priority first).
        sanitize: Run under the sim-sanitizer (runtime invariant
            checks on the event calendar, the memory ledgers and the
            pricing memos — see :mod:`repro.analysis.sanitizer`).
            ``None`` (default) defers to the ``REPRO_SANITIZE``
            environment variable.  Reports are byte-identical either
            way; sanitized runs trade the uneventful-decode fast path
            for the checks.
    """

    ctx: ExecutionContext
    batcher: Batcher = field(default_factory=ContinuousBatcher)
    num_layers: int | None = None
    routing_skew: float = 0.0
    seed: int | None = None
    page_size: int | None = None
    horizon_s: float | None = None
    placement_policy: str = "balanced"
    tenants: Sequence[TenantSpec] = ()
    scheduler: str = "youngest_first"
    sanitize: bool | None = None

    def __post_init__(self) -> None:
        self._loop = ServingLoop(self.tenants, self.scheduler,
                                 self.horizon_s)
        self.tenants = self._loop.tenants
        self.pool = Pool(self.ctx, self.batcher, num_layers=self.num_layers,
                         routing_skew=self.routing_skew, seed=self.seed,
                         page_size=self.page_size,
                         placement_policy=self.placement_policy,
                         sanitize=self.sanitize)

    def step_seconds(self, plan: StepPlan) -> float:
        """Duration of one engine step (full forward over all layers).

        Delegates to the pool's memoising :class:`StepPricer`.  On a
        multi-device context the step is a per-device makespan:
        attention shards over the tensor-parallel group, expert
        segments run on their owning expert-parallel devices, and the
        boundary collectives (TP all-reduces, EP dispatch/combine
        all-to-alls) are added per layer.
        """
        return self.pool.pricer.price(plan)[0]

    def run(self, trace: Sequence[Request],
            max_steps: int = 1_000_000) -> ServeReport:
        """Serve ``trace`` to completion and summarise the run."""
        served = self._loop.run([self.pool], trace, max_steps=max_steps)
        ctx = self.ctx
        return summarise(served.collector, engine=ctx.engine.name,
                         model=ctx.config.name, gpu=ctx.spec.name,
                         batcher=self.batcher.name,
                         num_requests=len(trace),
                         cluster=self.pool.cluster_report(),
                         auto=served.auto, tenants=self.tenants or None,
                         all_records=served.records)
