"""Discrete-event serving core over the per-layer cost stack.

The engine is an event calendar (:mod:`repro.serve.events`): a
heap-ordered queue of typed events — :class:`~repro.serve.events.Arrival`,
:class:`~repro.serve.events.StepComplete`,
:class:`~repro.serve.events.Preempt`,
:class:`~repro.serve.events.HorizonExpired` — with an
:class:`~repro.serve.events.EventManager` that owns the clock.  At each
step boundary the batcher composes the step (admissions + decodes), a
:class:`~repro.serve.costs.StepPricer` prices its duration with the
prefill/decode cost split from :mod:`repro.models` — scaled by
``num_layers`` to a full-model forward — and a ``StepComplete`` event
is scheduled; its handler applies the plan's lifecycle effects when
the clock reaches it.  Request timestamps fall out of the clock.
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
:class:`~repro.hw.interconnect.ParallelPlan` the server shards over an
``ep x tp`` device grid: experts are placed on devices (skew-aware by
default), each step is the slowest device's makespan plus the boundary
collectives (TP all-reduces, EP dispatch/combine all-to-alls), and
memory runs through one ledger per device
(:class:`~repro.moe.memory_model.DeviceLedgers`) with admission gated
on the bottleneck device.

The pre-calendar nested-``while`` implementation survives verbatim in
:mod:`repro.serve._legacy_loop` as the golden baseline; the calendar
core is pinned byte-identical to it by ``tests/test_serve_golden.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.context import ExecutionContext
from repro.errors import CapacityError, ConfigError, InternalError
from repro.analysis.sanitizer import (
    SanitizedEventManager,
    SanitizedStepPricer,
    sanitize_enabled,
    wrap_ledger,
)
from repro.hw.interconnect import ClusterSpec, LinkSpec, ParallelPlan
from repro.moe.memory_model import (
    BlockAllocator,
    DeviceLedgers,
    KVCacheTracker,
    MemoryLedger,
    kv_cache_bytes,
)
from repro.moe.scheduler import ExpertPlacement, place_experts
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


@dataclass
class ServingEngine:
    """One simulated model server: context + batching policy + memory.

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
        self.tenants = tuple(self.tenants)
        validate_tenants(self.tenants)
        self._tenant_table = {t.name: t for t in self.tenants}
        self._policy = make_scheduler(self.scheduler)
        self._layers = self.num_layers or self.ctx.config.num_layers
        if self._layers <= 0:
            raise ConfigError("num_layers must be positive")
        if self.page_size is not None and self.page_size <= 0:
            raise ConfigError("page_size must be positive")
        if self.horizon_s is not None and self.horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")
        self._rng = new_rng(self.seed)
        self._popularity = zipf_expert_popularity(
            self.ctx.config.num_experts, self.routing_skew)
        parallel = self.ctx.parallel
        if parallel.dp > 1:
            raise ConfigError(
                "data-parallel serving is not modeled; run one engine "
                "per replica (ep/tp shard a single replica)")
        self._distributed = not parallel.is_trivial
        self._cluster: ClusterSpec | None = None
        self._placement: ExpertPlacement | None = None
        if self._distributed:
            self._cluster = self.ctx.cluster_spec
            if parallel.ep > 1:
                self._placement = place_experts(
                    self.ctx.config.num_experts, parallel.ep,
                    policy=self.placement_policy,
                    profile=self._popularity)
        self._sanitize = sanitize_enabled(self.sanitize)
        pricer_cls = SanitizedStepPricer if self._sanitize else StepPricer
        self._pricer = pricer_cls(self.ctx, self._layers,
                                  self._popularity, self._rng,
                                  placement=self._placement,
                                  cluster=self._cluster)
        self._step_comm_s = 0.0
        self._comm_s_total = 0.0
        self._busy_s_total = 0.0
        # engine="auto": per-phase counts of which fixed engine the
        # cost-driven selector dispatched each step to.
        self._auto_counts: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Step pricing
    # ------------------------------------------------------------------
    def step_seconds(self, plan: StepPlan) -> float:
        """Duration of one engine step (full forward over all layers).

        Delegates to the memoising :class:`StepPricer`.  On a
        multi-device context the step is a per-device makespan:
        attention shards over the tensor-parallel group, expert
        segments run on their owning expert-parallel devices, and the
        boundary collectives (TP all-reduces, EP dispatch/combine
        all-to-alls) are added per layer.  ``self._step_comm_s`` holds
        the communication share of the step just priced.
        """
        step_s, comm_s, _ = self._pricer.price(plan)
        self._step_comm_s = comm_s
        return step_s

    # ------------------------------------------------------------------
    # Event handlers and memory policy
    # ------------------------------------------------------------------
    def _make_ledger(self) -> "MemoryLedger | DeviceLedgers":
        if self._distributed:
            parallel = self.ctx.parallel
            cluster = self._cluster
            if cluster is None:
                raise InternalError(
                    "distributed run has no cluster for its ledgers")
            grid = parallel.ep * parallel.tp
            gpus = [cluster.device(d % cluster.num_devices)
                    for d in range(grid)]
            counts = (self._placement.counts()
                      if self._placement is not None else None)
            return DeviceLedgers.create(
                self.ctx.config, self.ctx.engine.name, gpus, parallel,
                expert_counts=counts, page_size=self.page_size)
        if self.page_size:
            return BlockAllocator(self.ctx.config, self.ctx.engine.name,
                                  self.ctx.spec, page_size=self.page_size)
        return KVCacheTracker(self.ctx.config, self.ctx.engine.name,
                              self.ctx.spec)

    def _evict(self, victim: ActiveRequest,
               ledger: "MemoryLedger | DeviceLedgers",
               running: list[ActiveRequest], waiting: "deque[Request]",
               evicted: set[int], manager: EventManager) -> None:
        """Preempt ``victim``: free its blocks, requeue for recompute.

        The :class:`Preempt` event dispatches immediately at the
        current clock — preemption is a same-instant consequence of
        the completing step, not a scheduled future."""
        ledger.release(victim.request.rid)
        running.remove(victim)
        waiting.appendleft(victim.request)
        evicted.add(victim.request.rid)
        manager.emit(Preempt(when=manager.clock,
                             victim_rid=victim.request.rid,
                             tenant=victim.request.tenant))

    def _grow(self, ar: ActiveRequest,
              ledger: "MemoryLedger | DeviceLedgers",
              running: list[ActiveRequest], waiting: "deque[Request]",
              evicted: set[int], manager: EventManager) -> bool:
        """Charge one token of KV growth for ``ar``, preempting the
        scheduling policy's preferred victim until it fits — the
        youngest resident request (latest arrival) under the default
        policy, the lowest-priority / most-slack one under
        ``priority_slack``.

        Returns ``False`` when ``ar`` itself was the victim and got
        evicted; raises :class:`CapacityError` when ``ar`` cannot grow
        even with the device to itself.
        """
        while True:
            try:
                ledger.grow(ar.request.rid)
                return True
            except CapacityError:
                victim = max(running, key=self._victim_key)
                if victim is ar and len(running) == 1:
                    total_tokens = ar.request.total_tokens
                    raise CapacityError(
                        f"request {ar.request.rid} "
                        f"({total_tokens} tokens) "
                        f"exceeds device memory even alone on "
                        f"{self.ctx.spec.name} with "
                        f"{self.ctx.engine.name}",
                        required_bytes=int(
                            ledger.peak_bytes(total_tokens)),
                        available_bytes=int(ledger.budget_bytes
                                            - ledger.static_bytes))
                self._evict(victim, ledger, running, waiting, evicted,
                            manager)
                if victim is ar:
                    return False

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(self, trace: Sequence[Request],
            max_steps: int = 1_000_000) -> ServeReport:
        """Serve ``trace`` to completion and summarise the run."""
        validate_trace(trace)
        # Per-run accumulators (a ServingEngine may serve many traces).
        self._step_comm_s = 0.0
        self._comm_s_total = 0.0
        self._busy_s_total = 0.0
        self._auto_counts = {}
        raw_ledger = self._make_ledger()
        ledger = (wrap_ledger(raw_ledger) if self._sanitize
                  else raw_ledger)
        records = {req.rid: RequestRecord(req) for req in trace}
        waiting: deque[Request] = deque()
        running: list[ActiveRequest] = []
        collector = MetricsCollector()
        manager = (SanitizedEventManager() if self._sanitize
                   else EventManager())
        queue = manager.queue
        policy = self._policy
        table = self._tenant_table

        def victim_key(ar: ActiveRequest):
            return policy.victim_key(ar, manager.clock,
                                     records.get(ar.request.rid),
                                     table.get(ar.request.tenant))

        self._victim_key = victim_key
        # Token-rate admission gate: fresh per run (bucket levels are
        # run state).  ``None`` when no tenant declares a rate limit,
        # which keeps the admission path allocation-free.
        gate = AdmissionGate(table) if table else None
        if gate is not None and not gate:
            gate = None
        self.batcher.admission_gate = gate
        for req in sorted(trace, key=lambda r: (r.arrival_s, r.rid)):
            queue.push(Arrival(when=req.arrival_s, request=req))
        if self.horizon_s is not None:
            queue.push(HorizonExpired(when=self.horizon_s))
        steps = 0
        # The (at most one) in-flight step's plan.  The StepComplete
        # event carries the timing; the plan is mutable engine state.
        in_flight: list[StepPlan] = []

        def on_arrival(event: Arrival) -> None:
            if gate is not None and not gate.admissible(event.request):
                # Larger than its tenant's bucket capacity: no amount
                # of waiting admits it.  Reject at the door.
                collector.reject(event.request.tenant)
                return
            waiting.append(event.request)

        def on_preempt(event: Preempt) -> None:
            collector.preempt(event.tenant)

        def on_horizon(event: HorizonExpired) -> None:
            manager.stop()             # plan no further steps

        def on_rate_refill(event: RateRefill) -> None:
            pass    # wake-up only: planning resumes in the main loop

        def on_step_complete(event: StepComplete) -> None:
            plan = in_flight.pop()
            clock = manager.clock
            self._busy_s_total += event.step_s
            self._comm_s_total += event.comm_s
            evicted: set[int] = set()
            # Every ledger-charged request must be resident before any
            # growth, so preemption can see (and evict) all of them.
            running.extend(plan.prefill)
            # Decode growth first, oldest arrivals first: under paged
            # allocation the block that backs a new token may require
            # preempting the youngest resident request.
            for ar in sorted(plan.decode,
                             key=lambda a: (a.request.arrival_s,
                                            a.request.rid)):
                if ar.request.rid in evicted:
                    continue
                ar.generated += 1
                self._grow(ar, ledger, running, waiting, evicted,
                           manager)
            for ar in plan.prefill:            # prompt + first token
                record = records[ar.request.rid]
                if record.admitted_s is None:
                    record.admitted_s = ar.admitted_s
                if ar.request.rid in evicted:
                    continue
                if record.first_token_s is None:
                    record.first_token_s = clock
                ar.prefilled = True
                ar.prefilled_tokens = ar.request.prompt_tokens
                ar.generated = 1
                self._grow(ar, ledger, running, waiting, evicted,
                           manager)
            for chunk in plan.chunks:          # chunked prefill slices
                ar = chunk.ar
                record = records[ar.request.rid]
                if record.admitted_s is None:
                    record.admitted_s = ar.admitted_s
                if ar.request.rid in evicted:
                    continue
                ar.prefilled_tokens += chunk.tokens
                if ar.prefilled_tokens >= ar.request.prompt_tokens:
                    ar.prefilled = True         # last chunk: token one
                    ar.generated = 1
                    if record.first_token_s is None:
                        record.first_token_s = clock
                    self._grow(ar, ledger, running, waiting, evicted,
                               manager)
            # Arrivals that landed during (or epsilon-past) the step
            # join the queue before the sample, so queue-depth
            # percentiles see them; a coinciding horizon sets the stop
            # flag here but never suppresses the sample below.
            manager.dispatch_due()
            collector.observe(StepSample(
                clock_s=clock,
                queue_depth=len(waiting),
                running=ledger.active_requests,
                step_tokens=plan.total_tokens,
                live_bytes=ledger.live_bytes,
                reserved_bytes=ledger.reserved_bytes,
                pool_util=ledger.pool_utilisation,
                comm_s=event.comm_s,
                step_s=event.step_s,
            ))
            for ar in [ar for ar in running if ar.finished]:
                running.remove(ar)
                ledger.release(ar.request.rid)
                record = records[ar.request.rid]
                record.finished_s = clock
                collector.finish(record)

        manager.on(EventKind.ARRIVAL, on_arrival)
        manager.on(EventKind.PREEMPT, on_preempt)
        manager.on(EventKind.HORIZON_EXPIRED, on_horizon)
        manager.on(EventKind.STEP_COMPLETE, on_step_complete)
        manager.on(EventKind.RATE_REFILL, on_rate_refill)

        # -- uneventful-decode fast path --------------------------------
        # The discrete-event payoff: when the calendar can prove the
        # next step is a pure decode step whose completion dispatches
        # nothing — no arrival inside the epsilon window, no horizon,
        # nobody reaching their output length, nothing waiting to admit
        # — the general path's outcome is fully determined, and runs of
        # such steps reduce to the pricing arithmetic plus a metrics
        # sample.  Restricted to the configurations where that proof
        # holds: plain continuous batching (the plan is exactly
        # ``decode=tuple(running)``), conservative admission (growth
        # never fails, so no preemption), a fixed single-device engine
        # and a deterministic pricer (no RNG draw per step).
        fast_eligible = (type(self.batcher) is ContinuousBatcher
                         and self.page_size is None
                         and not self._distributed
                         and not self._pricer.stochastic
                         and not isinstance(self.ctx.engine, AutoEngine)
                         and not self._sanitize
                         and type(ledger) is KVCacheTracker)

        def fast_decode_run() -> bool:
            """Commit a run of provably uneventful pure-decode steps.

            Every committed step replays, float op for float op, what
            the general path would have done: the same pricing
            composition as :meth:`StepPricer._price` for a decode-only
            plan, the same ``max(clock, clock + step_s)`` clock update,
            the same per-step sample values (``live_bytes`` from the
            ledger's resident-token total, every running request one
            token further per step).  Only the
            work whose outcome is already known is skipped — planning,
            per-token ledger growth (bulk-applied afterwards), the
            preemption machinery and the finish scan.  Stops *before*
            any step boundary where an event could be due, leaving that
            step to the general path.  Returns True when at least one
            step was committed.
            """
            nonlocal steps
            if not running or not all(ar.prefilled for ar in running):
                return False
            # The step in which the earliest finisher reaches its
            # output length must run through the general path.
            limit = min(ar.request.output_tokens - ar.generated
                        for ar in running) - 1
            limit = min(limit, max_steps - steps)
            if limit <= 0:
                return False
            pricer = self._pricer
            batch = len(running)
            context_tokens = sum(ar.context_tokens for ar in running)
            moe_s = pricer._moe_seconds(batch)
            norm_s = pricer._norm_seconds(batch)
            layers = self._layers
            config, spec = self.ctx.config, self.ctx.spec
            static_bytes = ledger.static_bytes
            resident_tokens = ledger.resident_tokens
            reserved_bytes = ledger.reserved_bytes
            util = ledger.pool_utilisation
            residents = ledger.active_requests
            # The queue cannot change inside the run (fast steps push
            # no events), so the barrier — the earliest event that
            # could become due at a step boundary — is a constant.
            head = queue.peek()
            barrier = head.when if head is not None else None
            # Inline the flash decode-attention arithmetic (the same
            # float ops as decode_attention_cost, minus the call and
            # the AttentionCost object); the rare flash=False context
            # keeps the function call.
            flash = self.ctx.flash
            if flash:
                proj_s = pricer.decode_proj(batch)
                h = config.hidden_size
                ccf = spec.cuda_core_flops
                bw = spec.dram_bandwidth
                launch_s = spec.kernel_launch_overhead_s
            observe = collector.samples.append
            busy = self._busy_s_total
            clock = manager.clock
            committed = 0
            while committed < limit:
                if flash:
                    flops = 2.0 * 2.0 * context_tokens * h
                    attn = 0.0 + ((proj_s
                                   + max(flops / ccf, flops / bw))
                                  + launch_s)
                else:
                    attn = 0.0 + pricer._decode_attn(context_tokens,
                                                     batch)
                step_s = (attn + moe_s + norm_s) * layers
                when = clock + step_s
                if barrier is not None and barrier <= when + CLOCK_EPS:
                    break          # something is due at this boundary
                committed += 1
                steps += 1
                clock = clock if clock >= when else when
                busy += step_s
                context_tokens += batch
                live_bytes = static_bytes + kv_cache_bytes(
                    config, resident_tokens + committed * batch)
                observe(StepSample(clock, 0, residents, batch,
                                   live_bytes, reserved_bytes, util,
                                   0.0, step_s))
            if not committed:
                return False
            self._busy_s_total = busy
            manager.clock = clock
            for ar in running:
                ar.generated += committed
                ledger.grow(ar.request.rid, committed)
            return True

        while True:
            # Same-instant events first: arrivals within the epsilon
            # of the clock, a horizon the clock has reached.
            manager.dispatch_due()
            if in_flight:
                # A step is in flight: advance to its completion (or
                # to whatever precedes it).  A step straddling the
                # horizon still completes fully, as before.
                manager.advance()
                continue
            if manager.stopped:
                break                  # horizon reached: stop serving
            if not (waiting or running or queue.pending_arrivals):
                break                  # trace fully served
            if fast_eligible and not waiting and fast_decode_run():
                continue
            if policy.reorders_queue and len(waiting) > 1:
                # Stable sort: FCFS within a priority class survives.
                ordered = sorted(
                    waiting,
                    key=lambda r: policy.queue_key(r,
                                                   table.get(r.tenant)))
                waiting.clear()
                waiting.extend(ordered)
            plan = self.batcher.plan_step(
                manager.clock, waiting, running, ledger,
                bool(queue.pending_arrivals))
            if plan.empty:
                if queue.pending_arrivals:
                    manager.advance()  # idle until the next arrival
                    continue
                if gate is not None and waiting:
                    # The queue head may be rate-throttled rather than
                    # memory-blocked: schedule a wake-up at the instant
                    # its tenant's bucket has refilled enough.
                    wake_s = gate.next_admit_s(manager.clock, waiting[0])
                    if wake_s is not None:
                        queue.push(RateRefill(when=wake_s))
                        manager.advance()
                        continue
                # An unfinished partial prefill is the stuck request
                # (it holds the blocks); otherwise blame the queue head.
                head = next((ar.request for ar in running
                             if not ar.prefilled),
                            waiting[0] if waiting else running[0].request)
                raise CapacityError(
                    f"request {head.rid} ({head.total_tokens} tokens) can "
                    f"never fit on {self.ctx.spec.name} with "
                    f"{self.ctx.engine.name}",
                    required_bytes=int(
                        ledger.peak_bytes(head.total_tokens)),
                    available_bytes=int(ledger.budget_bytes
                                        - ledger.static_bytes))
            steps += 1
            if steps > max_steps:
                raise ConfigError(f"exceeded {max_steps} steps; trace too "
                                  f"large or engine starved")
            step_s, comm_s, winner = self._pricer.price(plan)
            self._step_comm_s = comm_s
            if winner is not None:
                phase = ("prefill" if (plan.prefill or plan.chunks)
                         else "decode")
                counts = self._auto_counts.setdefault(phase, {})
                counts[winner] = counts.get(winner, 0) + 1
            in_flight.append(plan)
            queue.push(StepComplete(when=manager.clock + step_s,
                                    step_s=step_s, comm_s=comm_s))

        if self._sanitize and not manager.stopped:
            # A fully served trace must leave the ledger at its static
            # charge (horizon runs legitimately end with residents).
            ledger.assert_drained()
        return summarise(collector, engine=self.ctx.engine.name,
                         model=self.ctx.config.name,
                         gpu=self.ctx.spec.name, batcher=self.batcher.name,
                         num_requests=len(trace),
                         cluster=self._cluster_report(raw_ledger),
                         auto=self._auto_report(),
                         tenants=self.tenants or None,
                         all_records=list(records.values()))

    def _auto_report(self) -> dict[str, object] | None:
        """Auto-dispatch report section (``None`` for fixed engines).

        Names the engine the cost-driven selector dispatched each
        serving phase to — the most frequent winner per phase under
        ``selected``, full per-step counts under ``steps``.
        """
        if not isinstance(self.ctx.engine, AutoEngine):
            return None
        selected = {
            phase: max(counts.items(), key=lambda kv: (kv[1], kv[0]))[0]
            for phase, counts in self._auto_counts.items()}
        return {"selected": selected,
                "steps": {phase: dict(counts)
                          for phase, counts in self._auto_counts.items()}}

    def _cluster_report(self, ledger: "MemoryLedger | DeviceLedgers"
                        ) -> dict[str, object] | None:
        """Multi-device report section (``None`` on a single GPU)."""
        if not self._distributed:
            return None
        cluster = self._cluster
        if cluster is None:
            raise InternalError(
                "distributed run has no cluster for its report")
        busy = self._busy_s_total
        info: dict[str, object] = {
            "parallel": self.ctx.parallel.to_dict(),
            "cluster": cluster.describe(),
            "link": cluster.link.name,
            "comm_s_total": self._comm_s_total,
            "comm_fraction": (self._comm_s_total / busy
                              if busy > 0 else 0.0),
        }
        if self._placement is not None:
            info["placement_policy"] = self._placement.policy
            info["experts_per_device"] = list(self._placement.counts())
        if isinstance(ledger, DeviceLedgers):
            info["per_device_static_bytes"] = [
                led.static_bytes for led in ledger.ledgers]
        return info


#: ``simulate`` context-construction arguments and their signature
#: defaults: a prebuilt ExecutionContext already carries all of these.
_CTX_ARG_DEFAULTS = (("engine", "samoyeds"), ("gpu", "rtx4070s"),
                     ("streams", 1), ("flash", True),
                     ("parallel", None), ("link", None))


def _conflicting_ctx_args(ctx: ExecutionContext,
                          passed: dict[str, object]) -> list[str]:
    """Context-construction arguments that contradict a prebuilt ctx.

    An argument equal to its signature default is indistinguishable
    from an omitted one and is never flagged; one that matches what
    the context already carries is redundant but harmless.  Only a
    value that differs from *both* is a genuine contradiction.  A
    ``link`` on a single-device context is inert (no collectives are
    ever priced), so it is never flagged either — flagging it against
    the derived-default topology would reject a link the run never
    uses.
    """
    carried: dict[str, object] = {
        "engine": ctx.engine.name,
        "gpu": ctx.spec.name,
        "streams": ctx.streams,
        "flash": ctx.flash,
    }
    conflicts = []
    for name, default in _CTX_ARG_DEFAULTS:
        value = passed[name]
        if value == default:
            continue
        if name == "parallel":
            agrees = ParallelPlan.from_any(value) == ctx.parallel
        elif name == "link":
            link_name = (value.name if isinstance(value, LinkSpec)
                         else value)
            agrees = (ctx.parallel.is_trivial
                      or link_name == ctx.cluster_spec.link.name)
        else:
            agrees = value == carried[name]
        if not agrees:
            conflicts.append(name)
    return conflicts


def simulate(model: str | ExecutionContext, engine: str = "samoyeds",
             gpu: str = "rtx4070s", *, trace: Sequence[Request],
             batcher: Batcher | None = None, num_layers: int | None = None,
             streams: int = 1, flash: bool = True,
             routing_skew: float = 0.0, seed: int | None = None,
             page_size: int | None = None,
             parallel: "str | ParallelPlan | None" = None,
             link: "str | LinkSpec | None" = None,
             horizon_s: float | None = None,
             placement_policy: str = "balanced",
             sanitize: bool | None = None) -> ServeReport:
    """One-call serving simulation from registry names.

    This is the legacy kwargs front door; new code should prefer the
    declarative :class:`repro.api.DeploymentSpec` /
    :class:`repro.api.Deployment` surface, of which this is now a thin
    shim.  ``model`` may also be a prebuilt :class:`ExecutionContext`
    — the context then already carries engine, device, streams, flash,
    plan and topology, so combining it with
    ``engine``/``gpu``/``streams``/``flash``/``parallel``/``link``
    arguments that *contradict* it raises
    :class:`~repro.errors.ConfigError` (they used to be silently
    ignored); redundant arguments that agree with the context — or
    that equal the signature defaults, which is indistinguishable from
    omitting them — stay accepted.  A positive ``page_size`` switches admission
    to the paged :class:`~repro.moe.memory_model.BlockAllocator` (with
    preemption); ``None`` keeps the conservative whole-request
    reservation.  ``parallel`` takes the ``ep=4,tp=2`` syntax and
    shards the server over a homogeneous cluster of ``gpu`` copies
    joined by ``link``; ``horizon_s`` cuts serving off at that clock
    (the report stays well-formed even when nothing completed).
    ``sanitize=True`` (or ``REPRO_SANITIZE=1``) runs under the
    sim-sanitizer's runtime invariant checks; the report is
    byte-identical to an unsanitized run.
    """
    if isinstance(model, ExecutionContext):
        conflicts = _conflicting_ctx_args(
            model, {"engine": engine, "gpu": gpu, "streams": streams,
                    "flash": flash, "parallel": parallel, "link": link})
        if conflicts:
            raise ConfigError(
                f"simulate() got a prebuilt ExecutionContext together "
                f"with contradicting {', '.join(conflicts)}; the "
                f"context already fixes those — configure the context "
                f"(or use repro.api.DeploymentSpec) instead")
        ctx = model
    else:
        ctx = ExecutionContext.create(model, engine, gpu, streams=streams,
                                      flash=flash, parallel=parallel,
                                      link=link)
    server = ServingEngine(ctx=ctx, batcher=batcher or ContinuousBatcher(),
                           num_layers=num_layers,
                           routing_skew=routing_skew, seed=seed,
                           page_size=page_size, horizon_s=horizon_s,
                           placement_policy=placement_policy,
                           sanitize=sanitize)
    return server.run(trace)
