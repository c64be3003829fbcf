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
memory ledger and the pool's queues.  The loop is the run object: it
holds one run's state (records, collector, calendar, in-flight
transfers) and has one handler method per event kind.  At each step
boundary of an idle pool its batcher composes the step (admissions +
decodes), the pricer prices its duration with the prefill/decode cost
split from :mod:`repro.models` — scaled by ``num_layers`` to a
full-model forward — and a ``StepComplete`` event naming the pool is
scheduled; :meth:`ServingLoop.on_step_complete` applies the plan's
lifecycle effects when the clock reaches it.  Request timestamps fall
out of the clock.

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
block; the engine then *preempts* the scheduling policy's victim (the
youngest resident request under the default policy), which each pool
keeps ready in an ordered resident index
(:class:`~repro.serve.scheduling.ResidentIndex`): its blocks are
released and the request returns to the waiting queue (its front,
unless the policy orders the queue) to be recomputed on readmission
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
from itertools import islice
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Sequence

from repro.context import ExecutionContext
from repro.errors import CapacityError, ConfigError, InternalError
from repro.analysis.sanitizer import (
    KVTransferAuditor,
    SanitizedEventManager,
    SanitizedResidentIndex,
    SanitizedStepPricer,
    check_queue_order,
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
    ChunkedPrefillBatcher,
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
from repro.serve.scheduling import AdmissionGate, QueueOrder, make_scheduler
from repro.utils.rng import new_rng
from repro.workloads.tenants import TenantSpec, validate_tenants

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.serve.disagg.routers import RouterPolicy

#: Phase roles a pool can serve.  ``both`` is the colocated role: a
#: request that prefills on a ``both`` pool decodes there too (no KV
#: transfer), which is what makes a one-pool run colocated serving.
POOL_ROLES = ("prefill", "decode", "both")


#: ``(arrival_s, rid)`` of an active request: the order a step grows
#: its decodes in.
_ARRIVAL_ORDER = attrgetter("request.arrival_s", "request.rid")
#: A request's id, for the ledgers.
_REQUEST_ID = attrgetter("request.rid")


class Pool:
    """One GPU pool: a model server for one or both serving phases.

    What lives as long as the pool is built here: the context, the
    batcher, the expert placement and the memoising
    :class:`~repro.serve.costs.StepPricer` (whose memos and RNG carry
    across runs).  :meth:`start` gives every run a fresh memory
    ledger, queues (``waiting``, ``running``), in-flight plan, transfer
    bookkeeping (``outbound``, ``inbound_tokens``) and per-pool report
    statistics, which the :class:`ServingLoop` methods read and
    update; the loop adds the run's index of ``running`` in eviction
    order (``residents``, a
    :class:`~repro.serve.scheduling.ResidentIndex`).  Run-wide state
    lives on the loop, which also runs the pool's uneventful-decode
    fast path (:meth:`ServingLoop.fast_decode_run`).

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
        # The uneventful-decode fast path's proof holds on the
        # continuous and chunked batchers (with nothing waiting and
        # nobody mid-prefill, the plan is exactly
        # ``decode=tuple(running)``), a single-device ledger (the
        # conservative one never refuses a growth; the paged one
        # replays each block crossing, and the run stops before the
        # first it refuses) and a deterministic pricer (no RNG draw per
        # step; an ``auto`` step's winner is memoised by token count).
        self.fast_eligible = (type(self.batcher) in (ContinuousBatcher,
                                                     ChunkedPrefillBatcher)
                              and type(self.ledger) in (KVCacheTracker,
                                                        BlockAllocator)
                              and not self.pricer.stochastic
                              and not self.sanitize)

    @property
    def outstanding_tokens(self) -> int:
        """Router load signal: queued + still-to-generate + inbound."""
        tokens = sum(r.total_tokens for r in self.waiting)
        tokens += sum(max(ar.request.total_tokens - ar.context_tokens, 0)
                      for ar in self.running)
        return tokens + self.inbound_tokens

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


class ServingLoop:
    """The one event loop: serves a trace across a list of pools.

    Holds the run-level settings both front doors validate at
    construction — tenant classes, the scheduling policy and the
    serving horizon — while :meth:`run` takes the pools, plus the
    router and transfer link a multi-pool run needs.  The loop is also
    the run object: :meth:`run` sets the run's state on it, as
    :meth:`Pool.start` does for a pool, and each event kind has one
    handler method.  The state stays readable until the next run
    starts: ``collector``, ``records`` (rid -> every request's record,
    finished or not, in trace order), ``auto`` (the engine the
    cost-driven selector dispatched each phase to, ``None`` unless a
    pool runs ``auto``) and the completed KV transfers (``transfers``,
    ``transfer_bytes``, ``transfer_s`` and ``transfer_s_by_rid``, the
    link seconds per migrated request summed over re-migrations).
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
            max_steps: int = 1_000_000) -> None:
        """Serve ``trace`` across ``pools`` until it is served (or the
        horizon cuts it).

        A phase with one candidate pool needs no routing decision;
        ``router`` (fresh per run: routers are run state) picks among
        several, and ``link`` prices the KV transfers out of
        prefill-only pools.
        """
        validate_trace(trace)
        sanitize = any(pool.sanitize for pool in pools)
        self.pools = pools
        self.records = records = {req.rid: RequestRecord(req)
                                  for req in trace}
        policy = self.policy
        self.table = table = {t.name: t for t in self.tenants}
        for index, pool in enumerate(pools):
            pool.start(index, sanitize)
            residents = policy.resident_index(records, table)
            pool.residents = (
                SanitizedResidentIndex(residents, pool.running, policy,
                                       records, table)
                if sanitize else residents)
        # Under a queue-reordering policy every queue stays in its
        # order: arrivals and requeued victims insert at their key.
        self.queue_order = queue_order = (
            QueueOrder(policy, table) if policy.reorders_queue else None)
        self.collector = MetricsCollector()
        self.manager = manager = (SanitizedEventManager() if sanitize
                                  else EventManager())
        self.queue = queue = manager.queue
        self.auditor = auditor = KVTransferAuditor() if sanitize else None
        # Stable name order everywhere scheduling iterates pools: the
        # deterministic half of the routers' ``(pool_name, rid)``
        # tie-break.
        self.sched = sched = sorted(pools, key=attrgetter("name"))
        self.prefill_pools = [p for p in sched if p.serves_prefill]
        self.decode_pools = [p for p in sched if p.serves_decode]
        self.router = router
        self.link = link
        npools = len(pools)
        fast = pools[0] if npools == 1 and pools[0].fast_eligible else None

        # Token-rate admission gate: fresh per run (bucket levels are
        # run state).  ``None`` when no tenant declares a rate limit,
        # which keeps the admission path allocation-free.
        gate = AdmissionGate(table) if table else None
        if gate is not None and not gate:
            gate = None
        self.gate = gate
        for pool in pools:
            pool.batcher.admission_gate = gate
        for req in sorted(trace, key=attrgetter("arrival_s", "rid")):
            queue.push(Arrival(when=req.arrival_s, request=req))
        if self.horizon_s is not None:
            queue.push(HorizonExpired(when=self.horizon_s))

        self.max_steps = max_steps
        self.steps = 0
        #: Pools with a step in flight.
        self.flying = 0
        #: rid -> (active request, source pool, destination pool) of
        #: every KV transfer currently on the wire.
        self.migrating: dict[int, tuple[ActiveRequest, Pool, Pool]] = {}
        #: Migrations blocked on destination admission, retried in
        #: stable (arrival_s, rid) order whenever capacity frees.
        self.pending: list[tuple[ActiveRequest, Pool]] = []
        self.auto_counts: dict[str, dict[str, int]] = {}
        self.auto: dict[str, object] | None = None
        self.transfers = 0
        self.transfer_bytes = 0.0
        self.transfer_s = 0.0
        self.transfer_s_by_rid: dict[int, float] = {}

        manager.on(EventKind.ARRIVAL, self.on_arrival)
        manager.on(EventKind.PREEMPT, self.on_preempt)
        manager.on(EventKind.HORIZON_EXPIRED, self.on_horizon)
        manager.on(EventKind.STEP_COMPLETE, self.on_step_complete)
        manager.on(EventKind.RATE_REFILL, self.on_rate_refill)
        manager.on(EventKind.KV_TRANSFER, self.on_kv_transfer)

        while True:
            # Same-instant events first: arrivals within the epsilon
            # of the clock, a horizon the clock has reached.
            manager.dispatch_due()
            if self.flying == npools:
                # Every pool is mid-step: advance to the next completion
                # (or to whatever precedes it).
                manager.advance()
                continue
            if manager.stopped:
                if not (self.flying or self.migrating):
                    break              # horizon reached: stop serving
                # In-flight steps and transfers complete fully; the
                # stop flag only gates planning.
                manager.advance()
                continue
            if not (self.flying or self.migrating or self.pending
                    or queue.pending_arrivals
                    or any(p.waiting or p.running for p in pools)):
                break                  # trace fully served
            if (fast is not None and not fast.waiting
                    and self.fast_decode_run(fast)):
                continue
            planned = False
            for pool in sched:
                if pool.in_flight is not None or not (pool.waiting
                                                      or pool.running):
                    continue
                if sanitize and queue_order is not None:
                    check_queue_order(pool.name, pool.waiting, policy,
                                      table)
                plan = pool.batcher.plan_step(
                    manager.clock, pool.waiting, pool.running, pool.ledger,
                    bool(queue.pending_arrivals))
                for chunk in plan.chunks:
                    if not chunk.offset:   # admitted with its first chunk
                        pool.residents.add(chunk.ar)
                if plan.empty:
                    continue
                self.steps += 1
                if self.steps > max_steps:
                    raise ConfigError(f"exceeded {max_steps} steps; trace "
                                      f"too large or engine starved")
                step_s, comm_s, winner = pool.pricer.price(plan)
                if winner is not None:
                    self.credit_auto("prefill" if (plan.prefill
                                                   or plan.chunks)
                                     else "decode", winner, 1)
                pool.in_flight = plan
                pool.steps += 1
                self.flying += 1
                queue.push(StepComplete(when=manager.clock + step_s,
                                        step_s=step_s, comm_s=comm_s,
                                        pool=pool.index))
                planned = True
            if planned:
                continue
            if self.flying or self.migrating or queue.pending_arrivals:
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
            req, pool = self.stuck()
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
            self.auto = {
                "selected": {
                    phase: max(counts.items(), key=itemgetter(1, 0))[0]
                    for phase, counts in self.auto_counts.items()},
                "steps": {phase: dict(counts)
                          for phase, counts in self.auto_counts.items()}}

    def credit_auto(self, phase: str, winner: str, steps: int) -> None:
        """Credit ``steps`` steps of ``phase`` to ``winner``, the fixed
        engine an ``auto`` pool's selector dispatched them to."""
        counts = self.auto_counts.setdefault(phase, {})
        counts[winner] = counts.get(winner, 0) + steps

    def fast_decode_run(self, pool: Pool) -> int:
        """Commit a run of provable pure-decode steps on ``pool``.

        The discrete-event payoff: with nothing waiting to admit and
        nobody mid-prefill, the general path's next steps are pure
        decode steps whose outcome is fully determined, and runs of
        such steps reduce to their prices plus a metrics sample.  A run
        ends *with* the step in which the earliest finisher reaches its
        output length or the calendar head becomes due (an arrival
        within the epsilon window), and dispatches what is due there.

        Every committed step is what the general path would have done:
        its price is the next value of
        :meth:`~repro.serve.costs.StepPricer.decode_steps` (exactly
        what ``price`` returns for that step's plan: with every
        resident prefilled, the ledger's resident-token total is the
        batch's context), its clock the same ``max(clock, clock +
        step_s)`` update, its sample the same values (``live_bytes``
        from the ledger's resident-token total, ``reserved_bytes`` and
        ``pool_util`` as the ledger reports them after the step, every
        running request one token further per step).  Only the work
        whose outcome is already known is skipped — planning, per-step
        ledger growth and the preemption machinery.  The run's growth
        is charged in one call once its end is found: ``grow_each`` on
        a conservative ledger, which never refuses; on a paged one
        :meth:`~repro.moe.memory_model.BlockAllocator.grow_steps`,
        which replays every block crossing in the general path's order
        (step, then arrival) and grows only the steps before the first
        it refuses, leaving that step to the general path.  Then the
        clock moves to the last grown step and what is due there is
        dispatched, as :meth:`on_step_complete` does, before the
        samples are built: the last one counts the arrivals that
        landed.  Requests that finished in that step leave through
        :meth:`release_finished`.  An ``auto`` pool credits the
        committed steps to the batch's memoised winner.  Commits at
        most the steps left under ``max_steps``, adds them to ``steps``
        and returns how many it committed.  Only sound when ``pool`` is
        the run's only pool and its :attr:`~Pool.fast_eligible` holds.
        """
        running = pool.running
        if not running or not all(ar.prefilled for ar in running):
            return 0
        # The run ends with the step in which the earliest finisher
        # reaches its output length.
        finish_step = min(ar.request.output_tokens - ar.generated
                          for ar in running)
        limit = min(finish_step, self.max_steps - self.steps)
        if limit <= 0:
            return 0
        manager = self.manager
        # The queue cannot change inside the run (fast steps push no
        # events), so the barrier — the earliest event that could
        # become due at a step boundary — is a constant.
        head = manager.queue.peek()
        barrier = head.when if head is not None else float("inf")
        batch = len(running)
        ledger = pool.ledger
        # The samples start from the run's opening charge.
        static_bytes = ledger.static_bytes
        resident_tokens = ledger.resident_tokens
        reserved_bytes = ledger.reserved_bytes
        util = ledger.pool_utilisation
        residents = ledger.active_requests
        clock = manager.clock
        clocks: list[float] = []
        prices: list[float] = []
        for step_s in islice(pool.pricer.decode_steps(
                batch, resident_tokens), limit):
            when = clock + step_s
            clock = clock if clock >= when else when
            clocks.append(clock)
            prices.append(step_s)
            if barrier <= when + CLOCK_EPS:
                break              # something is due at this boundary
        if pool.page_size:
            # The general path grows a decode step's residents in
            # arrival order; the step after the last grown one needs a
            # block the pool cannot back, and the general path preempts
            # for it.
            committed, crossed = ledger.grow_steps(
                [*map(_REQUEST_ID, sorted(running, key=_ARRIVAL_ORDER))],
                len(prices))
            if not committed:
                return 0
        else:
            committed = len(prices)
            crossed = []
            ledger.grow_each([*map(_REQUEST_ID, running)], committed)
        clock = clocks[committed - 1]
        manager.clock = clock
        manager.dispatch_due()
        charges = {step: (reserved, after)
                   for step, reserved, after in crossed}
        config = pool.ctx.config
        samples = self.collector.samples
        busy_s = pool.busy_s
        for step, step_clock, step_s in zip(range(1, committed + 1),
                                            clocks, prices):
            if step in charges:
                reserved_bytes, util = charges[step]
            busy_s += step_s
            live_bytes = static_bytes + kv_cache_bytes(
                config, resident_tokens + step * batch)
            samples.append(StepSample(step_clock, 0, residents, batch,
                                      live_bytes, reserved_bytes, util,
                                      0.0, step_s))
        # Nothing was waiting before the last boundary's dispatch.
        samples[-1].queue_depth = len(pool.waiting)
        if util > pool.peak_util:
            pool.peak_util = util
        pool.busy_s = busy_s
        pool.steps += committed
        self.steps += committed
        for ar in running:
            ar.generated += committed
        winner = pool.pricer.auto_winner(batch)
        if winner is not None:
            self.credit_auto("decode", winner, committed)
        if committed == finish_step:
            self.release_finished(pool, [
                ar for ar in running
                if ar.generated >= ar.request.output_tokens], clock)
        return committed

    def release_finished(self, pool: Pool, finishers: list[ActiveRequest],
                         clock: float) -> None:
        """Retire ``finishers``, which reached their output length in
        ``pool``'s step completing at ``clock``, in the order given:
        ``running`` order, which is the collector's finish order and so
        the summation order of the report's means."""
        for ar in finishers:
            pool.running.remove(ar)
            pool.residents.remove(ar)
            pool.ledger.release(ar.request.rid)
            record = self.records[ar.request.rid]
            record.finished_s = clock
            self.collector.finish(record)
            pool.finished += 1
            pool.tpot_values.append(record.tpot_s)

    def route(self, candidates: list[Pool], req: Request,
              phase: str) -> Pool:
        if len(candidates) == 1:
            return candidates[0]
        return self.router.select(candidates, req,
                                  self.table.get(req.tenant), phase)

    def evict(self, pool: Pool, victim: ActiveRequest,
              evicted: set[int]) -> None:
        """Preempt ``victim``: free its blocks, requeue it for
        recompute.

        A prefill-capable pool requeues it at its own queue head; a
        decode-only pool cannot recompute, so the victim re-routes to a
        prefill pool's.  The :class:`Preempt` event dispatches
        immediately at the current clock — preemption is a
        same-instant consequence of the completing step, not a
        scheduled future."""
        req = victim.request
        pool.ledger.release(req.rid)
        pool.running.remove(victim)
        pool.residents.remove(victim)
        home = (pool if pool.serves_prefill
                else self.route(self.prefill_pools, req, "prefill"))
        if self.queue_order is None:
            home.waiting.appendleft(req)
        else:
            self.queue_order.insert(home.waiting, req)
        evicted.add(req.rid)
        self.manager.emit(Preempt(when=self.manager.clock,
                                  victim_rid=req.rid, tenant=req.tenant))

    def make_room(self, pool: Pool, ar: ActiveRequest,
                  evicted: set[int]) -> None:
        """Charge the token of KV growth the ledger refused ``ar``,
        preempting the scheduling policy's preferred victim until it
        fits — the youngest resident request (latest arrival) under
        the default policy, the lowest-priority / most-slack one under
        ``priority_slack`` — or until ``ar`` itself is evicted.

        Raises :class:`CapacityError` when ``ar`` cannot grow even with
        the pool to itself (unless transfers out of the pool will free
        bytes when they land: then ``ar`` recomputes later).
        """
        ledger = pool.ledger
        running = pool.running
        while True:
            victim = pool.residents.victim(self.manager.clock)
            if victim is ar and len(running) == 1 and not pool.outbound:
                total_tokens = ar.request.total_tokens
                raise CapacityError(
                    f"request {ar.request.rid} ({total_tokens} tokens) "
                    f"exceeds device memory even alone on "
                    f"{pool.ctx.spec.name} with {pool.ctx.engine.name}",
                    required_bytes=int(ledger.peak_bytes(total_tokens)),
                    available_bytes=int(ledger.budget_bytes
                                        - ledger.static_bytes))
            self.evict(pool, victim, evicted)
            if victim is ar or ledger.grow_each((ar.request.rid,)):
                return

    def first_token(self, pool: Pool, ar: ActiveRequest,
                    clock: float) -> None:
        """``ar``'s prompt is fully prefilled: token one is out."""
        ar.prefilled_tokens = ar.request.prompt_tokens
        ar.prefilled = True
        ar.generated = 1
        pool.prefills += 1
        record = self.records[ar.request.rid]
        if record.first_token_s is None:
            record.first_token_s = clock
            pool.ttft_values.append(clock - ar.request.arrival_s)
        pool.residents.first_token(ar)

    def migrate(self, ar: ActiveRequest, src: Pool) -> bool:
        """Start ``ar``'s KV transfer out of ``src`` if the decode pool
        routed to can admit it now; charge the destination and
        schedule the :class:`KVTransfer` completion."""
        req = ar.request
        dst = self.route(self.decode_pools, req, "decode")
        ledger = dst.ledger
        if not ledger.can_admit_request(ar.context_tokens,
                                        req.total_tokens):
            return False
        auditor = self.auditor
        if auditor is not None:
            live0_bytes = ledger.live_bytes
        ledger.admit(req.rid, ar.context_tokens, req.total_tokens)
        if auditor is not None:
            # Full-model KV bytes: the cluster live-bytes sum is ep x
            # the model's KV (tp shards cancel in the sum).
            auditor.transfer_started(
                req.rid, src.name, dst.name,
                charged_bytes=((ledger.live_bytes - live0_bytes)
                               / dst.ctx.parallel.ep))
        nbytes = kv_cache_bytes(src.ctx.config,
                                ar.context_tokens) * src.layers
        transfer_s = self.link.transfer_seconds(nbytes)
        self.queue.push(KVTransfer(when=self.manager.clock + transfer_s,
                                   transfer_rid=req.rid,
                                   src_pool=src.name, dst_pool=dst.name,
                                   nbytes=nbytes, transfer_s=transfer_s))
        self.migrating[req.rid] = (ar, src, dst)
        src.outbound[req.rid] = ar
        dst.inbound_tokens += max(req.total_tokens - ar.context_tokens, 0)
        return True

    def retry_migrations(self) -> None:
        pending = self.pending
        blocked = sorted(pending, key=lambda item: _ARRIVAL_ORDER(item[0]))
        pending.clear()
        for ar, src in blocked:
            if not self.migrate(ar, src):
                pending.append((ar, src))

    def stuck(self) -> tuple[Request, Pool]:
        """The request to blame for a starved run and the pool that can
        never fit it: an unfinished partial prefill (it holds the
        blocks); else a blocked migration (on the decode pool it routes
        to); else the first waiting head."""
        for pool in self.sched:
            for ar in pool.running:
                if not ar.prefilled:
                    return ar.request, pool
        if self.pending:
            req = self.pending[0][0].request
            return req, self.route(self.decode_pools, req, "decode")
        for pool in self.sched:
            if pool.waiting:
                return pool.waiting[0], pool
        raise InternalError("starved run with no stuck request")

    # -- handlers -------------------------------------------------------
    def on_arrival(self, event: Arrival) -> None:
        req = event.request
        gate = self.gate
        if gate is not None and not gate.admissible(req):
            # Larger than its tenant's bucket capacity: no amount of
            # waiting admits it.  Reject at the door.
            self.collector.reject(req.tenant)
            return
        waiting = self.route(self.prefill_pools, req, "prefill").waiting
        if self.queue_order is None:
            waiting.append(req)
        else:
            self.queue_order.insert(waiting, req)

    def on_preempt(self, event: Preempt) -> None:
        self.collector.preempt(event.tenant)

    def on_horizon(self, event: HorizonExpired) -> None:
        self.manager.stop()            # plan no further steps

    def on_rate_refill(self, event: RateRefill) -> None:
        pass    # wake-up only: planning resumes in the main loop

    def on_kv_transfer(self, event: KVTransfer) -> None:
        rid = event.transfer_rid
        ar, src, dst = self.migrating.pop(rid)
        del src.outbound[rid]
        auditor = self.auditor
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
        dst.residents.add(ar)
        dst.inbound_tokens -= max(ar.request.total_tokens
                                  - ar.context_tokens, 0)
        by_rid = self.transfer_s_by_rid
        by_rid[rid] = by_rid.get(rid, 0.0) + event.transfer_s
        self.transfers += 1
        self.transfer_bytes += event.nbytes
        self.transfer_s += event.transfer_s
        # The source just freed KV bytes: blocked migrations out of
        # other pools may now fit elsewhere, and blocked *local*
        # admissions retry at the next planning pass.
        if self.pending:
            self.retry_migrations()

    def on_step_complete(self, event: StepComplete) -> None:
        pool = self.pools[event.pool]
        plan = pool.in_flight
        pool.in_flight = None
        self.flying -= 1
        clock = self.manager.clock
        pool.busy_s += event.step_s
        pool.comm_s += event.comm_s
        ledger = pool.ledger
        running = pool.running
        residents = pool.residents
        records = self.records
        evicted: set[int] = set()
        # Every ledger-charged request must be resident before any
        # growth, so preemption can see (and evict) all of them.
        running.extend(plan.prefill)
        for ar in plan.prefill:
            residents.add(ar)
        # Grow every token the step produced, in one order: the
        # decodes, oldest arrival first, then the prompts it finished
        # (whole prefills, then last chunks).  Under paged allocation
        # the block that backs a new token may require preempting a
        # resident request.  One ledger call grows the longest prefix
        # that fits; only the refused request makes room, and the bulk
        # call resumes on the survivors after it.  A request's token
        # takes effect (one more decoded token, or a prompt's first)
        # before a victim is chosen for it or for any later request,
        # so the scheduling policy sees what one growth call per
        # request would show it.
        order = sorted(plan.decode, key=_ARRIVAL_ORDER)
        if plan.prefill or plan.chunks:
            for chunk in plan.chunks:
                chunk.ar.prefilled_tokens += chunk.tokens
            for ar in (*plan.prefill, *(chunk.ar for chunk in plan.chunks)):
                record = records[ar.request.rid]
                if record.admitted_s is None:
                    record.admitted_s = ar.admitted_s
            order += plan.prefill
            order += [chunk.ar for chunk in plan.chunks if chunk.completes]
        finishers: list[ActiveRequest] = []
        while order:
            grown = ledger.grow_each([*map(_REQUEST_ID, order)])
            for ar in order[:grown + 1]:       # the refused one too
                if ar.prefilled:               # a decode
                    ar.generated += 1
                else:                          # a finished prompt
                    self.first_token(pool, ar, clock)
                if ar.generated >= ar.request.output_tokens:
                    finishers.append(ar)
            if grown == len(order):
                break
            self.make_room(pool, order[grown], evicted)
            order = [ar for ar in order[grown + 1:]
                     if ar.request.rid not in evicted]
        if not pool.serves_decode:
            # Prompts that finished prefilling here must decode
            # elsewhere: start (or queue) their KV migration.
            movers = sorted((ar for ar in running
                             if ar.prefilled and not ar.finished),
                            key=_ARRIVAL_ORDER)
            for ar in movers:
                running.remove(ar)
                residents.remove(ar)
                if not self.migrate(ar, pool):
                    self.pending.append((ar, pool))
        # Arrivals that landed during (or epsilon-past) the step join
        # the queue before the sample, so queue-depth percentiles see
        # them; a coinciding horizon sets the stop flag here but never
        # suppresses the sample below.
        self.manager.dispatch_due()
        util = ledger.pool_utilisation
        if util > pool.peak_util:
            pool.peak_util = util
        self.collector.observe(StepSample(
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
        if finishers:
            # Release in ``running`` order, which drops any evicted
            # since.
            self.release_finished(
                pool, list(filter(set(finishers).__contains__, running)),
                clock)
        if self.pending:
            self.retry_migrations()


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
        loop = self._loop
        loop.run([self.pool], trace, max_steps=max_steps)
        ctx = self.ctx
        return summarise(loop.collector, engine=ctx.engine.name,
                         model=ctx.config.name, gpu=ctx.spec.name,
                         batcher=self.batcher.name,
                         num_requests=len(trace),
                         cluster=self.pool.cluster_report(),
                         auto=loop.auto, tenants=self.tenants or None,
                         all_records=loop.records.values())
