"""Exact memoised step pricing for the event-calendar serving core.

The pre-calendar loop priced every step from scratch: one
``attention_cost`` per prefill request, one engine ``cost()`` per MoE
evaluation, scalar Python throughout.  It called the analytic kernel
cost model thousands of times with a handful of *distinct* argument
tuples, because continuous batching revisits the same step shapes over
and over.

:class:`StepPricer` removes that waste without changing a single bit
of the output.  Every cost primitive in the serving path is a
deterministic function of a small integer key, so the pricer memoises
them exactly:

* prefill attention by prompt length, chunk attention by
  ``(offset, tokens)``, the decode-attention projection GEMMs by batch
  size (the context-dependent remainder is closed-form arithmetic);
* the monolithic MoE engine cost (time, data-flow overhead and, for
  ``engine="auto"``, the winner ``AutoEngine.cost`` names in
  ``detail["selected_engine"]``) by token count.  Below it, each
  engine memoises its routed GEMM aggregate by padded segment shape
  (:meth:`~repro.moe.layers.MoEEngine._gemms`), so a new token count
  that pads to a known shape simulates no kernel: every step of 1–512
  tokens on mixtral-8x7b prices the same 128-column Samoyeds segment;
* RMSNorm and boundary-collective seconds by token count.

:meth:`StepPricer.price` composes each step from these memos, and
:meth:`StepPricer.decode_steps` prices the fast path's runs of decode
steps; both take decode attention from one private path.

A step's ``auto`` winner is the one its MoE cost was priced with.
The selector itself memoises per power-of-two bucket, so every token
count in a bucket names the same winner.

Because every memoised value is produced by the same pure function the
pre-calendar loop called, and the sums compose in the same order,
reports and prices are byte-identical to that loop's recorded output
(``tests/test_serve_golden.py`` and ``tests/test_serve_pricing.py``
pin this).  The one MoE cost that is *not* memoised is the
stochastic one: a Samoyeds context with ``streams > 1`` (or a
distributed Samoyeds context) draws per-expert loads from the RNG each
step; skipping the draw would desynchronise the stream, so those steps
re-draw every time and only the deterministic components (attention,
norms, data-flow, the per-``n_e`` segment triples) hit memos.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING

from repro.errors import InternalError
from repro.models.attention import (
    _projection_seconds,
    attention_cost,
    decode_attention_cost,
)
from repro.models.decoder import boundary_comm_seconds, norm_seconds
from repro.moe.layers import SamoyedsEngine
from repro.moe.scheduler import (
    device_makespans,
    schedule_parallel,
    segment_seconds_from_loads,
)
from repro.registry.selector import AutoEngine

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from typing import Iterator, Sequence

    from repro.context import ExecutionContext
    from repro.hw.interconnect import ClusterSpec
    from repro.moe.scheduler import ExpertPlacement
    from repro.serve.batcher import ActiveRequest, StepPlan

#: A priced step: (total seconds, communication seconds — both scaled
#: to all layers — and the auto-dispatch winner name, ``None`` for
#: fixed engines or empty steps).
PricedStep = "tuple[float, float, str | None]"

_PREFILLED_TOKENS = attrgetter("prefilled_tokens")
_GENERATED = attrgetter("generated")


def decode_context(decode: "Sequence[ActiveRequest]") -> int:
    """Cached tokens a decode batch attends to: the sum of its
    requests' ``context_tokens``."""
    return (sum(map(_PREFILLED_TOKENS, decode))
            + sum(map(_GENERATED, decode)))


class StepPricer:
    """Prices serving steps with exact memoisation.

    Owns every cost memo of one :class:`~repro.serve.engine.Pool`
    (memos persist across runs, like the old loop's MoE memo did).
    Owns the pool's RNG so the stochastic LPT paths draw one load
    sample per step, the sequence the recorded prices assume.
    """

    def __init__(self, ctx: "ExecutionContext", layers: int,
                 popularity, rng,
                 placement: "ExpertPlacement | None" = None,
                 cluster: "ClusterSpec | None" = None) -> None:
        self.ctx = ctx
        self._layers = layers
        self._popularity = popularity
        self._rng = rng
        self._placement = placement
        self._cluster = cluster
        self._distributed = not ctx.parallel.is_trivial
        self._samoyeds = isinstance(ctx.engine, SamoyedsEngine)
        self._auto = isinstance(ctx.engine, AutoEngine)
        #: Steps that consume RNG: the draw itself is part of the
        #: step's semantics, so such a step is priced once, in order.
        self.stochastic = self._samoyeds and (self._distributed
                                              or ctx.streams > 1)
        self._segment_kernel = None
        # Component memos: key -> seconds (or, for the MoE engine,
        # (time_s, dataflow_s, selected_engine)).
        self._attn: dict[int, float] = {}
        self._chunk: dict[tuple[int, int], float] = {}
        self._proj: dict[int, float] = {}
        self._norm: dict[int, float] = {}
        self._comm: dict[int, float] = {}
        self._moe: dict[int, tuple[float, float, str | None]] = {}
        self._segments: dict[int, dict[int, float]] = {}

    # ------------------------------------------------------------------
    # Step pricing
    # ------------------------------------------------------------------
    def price(self, plan: "StepPlan") -> "tuple[float, float, str | None]":
        """Price one step: ``(step_s, comm_s, auto_winner)``.

        ``step_s`` and ``comm_s`` are scaled to all decoder layers;
        ``auto_winner`` names the engine the cost-driven selector
        dispatched this step to, ``None`` off the auto path.  Composed
        from the component memos in the pre-calendar loop's exact
        summation order (bit-identical floats).
        """
        attn = 0.0
        for ar in plan.prefill:
            attn += self._prefill_attn(ar.request.prompt_tokens)
        for chunk in plan.chunks:
            attn += self._chunk_attn(chunk.offset, chunk.tokens)
        if plan.decode:
            attn += next(self._decode_attn(len(plan.decode),
                                           decode_context(plan.decode)))
        tokens = plan.total_tokens
        winner = self.auto_winner(tokens)
        if not self._distributed:
            layer = attn + self._moe_seconds(tokens) \
                + self._norm_seconds(tokens)
            return (layer * self._layers, 0.0, winner)
        parallel = self.ctx.parallel
        moe_compute_s = self._distributed_moe_seconds(tokens)
        comm_s = self._comm_seconds(tokens)
        layer = (attn / parallel.tp + moe_compute_s
                 + self._norm_seconds(tokens) + comm_s)
        return (layer * self._layers, comm_s * self._layers, winner)

    def decode_steps(self, batch: int,
                     context: int) -> "Iterator[float]":
        """Seconds of successive decode-only steps of ``batch``
        residents: the first attends to ``context`` cached tokens, each
        later one to ``batch`` more.  Each is exactly what :meth:`price`
        returns for that step's plan.  The projection, MoE and norm
        seconds are looked up once per run; a stochastic or device-grid
        step is not priced here.
        """
        if self.stochastic or self._distributed:
            raise InternalError("decode_steps needs a deterministic "
                                "single-device pricer")
        moe_s = self._moe_seconds(batch)
        norm_s = self._norm_seconds(batch)
        layers = self._layers
        for attn in self._decode_attn(batch, context):
            yield (attn + moe_s + norm_s) * layers

    def _decode_attn(self, batch: int,
                     context: int) -> "Iterator[float]":
        """Decode attention seconds of the steps :meth:`decode_steps`
        describes.  Only the projection GEMMs are memoised (by batch):
        the context sum differs nearly every step.  On a flash context
        the rest is ``decode_attention_cost``'s arithmetic, float op for
        float op, without the call or its ``AttentionCost``.
        """
        proj_s = self.decode_proj(batch)
        config, spec = self.ctx.config, self.ctx.spec
        if not self.ctx.flash:
            while True:
                yield decode_attention_cost(
                    config, context, spec, batch=batch, flash=False,
                    proj_s=proj_s).total_s
                context += batch
        h = config.hidden_size
        ccf, bw = spec.cuda_core_flops, spec.dram_bandwidth
        launch_s = spec.kernel_launch_overhead_s
        while True:
            flops = 2.0 * 2.0 * context * h
            yield (proj_s + max(flops / ccf, flops / bw)) + launch_s
            context += batch

    # ------------------------------------------------------------------
    # Memoised components
    # ------------------------------------------------------------------
    def _prefill_attn(self, prompt_tokens: int) -> float:
        cached_s = self._attn.get(prompt_tokens)
        if cached_s is None:
            cached_s = self._attn[prompt_tokens] = attention_cost(
                self.ctx.config, prompt_tokens, self.ctx.spec,
                batch=1, flash=self.ctx.flash).total_s
        return cached_s

    def _chunk_attn(self, offset: int, tokens: int) -> float:
        """Marginal prefill attention of a chunk (the causal quadratic
        telescopes across chunks)."""
        cached = self._chunk.get((offset, tokens))
        if cached is None:
            if offset <= 0:
                cached = self._prefill_attn(tokens)
            else:
                cached = max(self._prefill_attn(offset + tokens)
                             - self._prefill_attn(offset), 0.0)
            self._chunk[(offset, tokens)] = cached
        return cached

    def decode_proj(self, batch: int) -> float:
        """Memoised decode projection GEMM seconds for ``batch`` new
        tokens — the only kernel-model call in decode attention, and a
        function of the batch alone."""
        proj_s = self._proj.get(batch)
        if proj_s is None:
            proj_s = self._proj[batch] = _projection_seconds(
                self.ctx.config, batch, self.ctx.spec)
        return proj_s

    def _norm_seconds(self, tokens: int) -> float:
        """Memoised RMSNorm seconds for ``tokens`` new tokens."""
        cached_s = self._norm.get(tokens)
        if cached_s is None:
            cached_s = self._norm[tokens] = norm_seconds(
                self.ctx.config, tokens, self.ctx.spec)
        return cached_s

    def _comm_seconds(self, tokens: int) -> float:
        cached_s = self._comm.get(tokens)
        if cached_s is None:
            if self._cluster is None:
                raise InternalError(
                    "comm pricing requested without a cluster")
            cached_s = self._comm[tokens] = boundary_comm_seconds(
                self.ctx.config, tokens, self.ctx.parallel,
                self._cluster)
        return cached_s

    def auto_winner(self, tokens: int) -> "str | None":
        """The engine ``engine="auto"`` dispatches a step of ``tokens``
        new tokens to: the winner its memoised MoE cost was priced with
        (``None`` for a fixed engine or an empty step)."""
        if not self._auto or tokens <= 0:
            return None
        return self._moe_cost(tokens)[2]

    def _moe_cost(self, tokens: int) -> "tuple[float, float, str | None]":
        """Memoised monolithic engine cost: ``(time_s, dataflow_s,
        selected_engine)``; the last is ``None`` off the auto path."""
        cached = self._moe.get(tokens)
        if cached is None:
            cost = self.ctx.engine.cost(self.ctx.config, tokens,
                                        self.ctx.spec)
            cached = self._moe[tokens] = (
                cost.time_s, float(cost.detail.get("dataflow_s", 0.0)),
                cost.detail.get("selected_engine"))
        return cached

    # ------------------------------------------------------------------
    # MoE-layer paths (the pre-calendar loop's three cases)
    # ------------------------------------------------------------------
    def _moe_seconds(self, tokens: int) -> float:
        """MoE-layer seconds for ``tokens`` new tokens in one step."""
        if tokens <= 0:
            return 0.0
        ctx = self.ctx
        if not (self._samoyeds and ctx.streams > 1):
            return self._moe_cost(tokens)[0]
        # LPT path: overlap per-expert SSMM segments on ctx.streams
        # streams; keep the engine model's data-flow overheads.
        dataflow_s = self._moe_cost(tokens)[1]
        segments = self._draw_segments(tokens)
        makespan_s = schedule_parallel(segments, ctx.streams).makespan_s
        return makespan_s + dataflow_s

    def _distributed_moe_seconds(self, tokens: int) -> float:
        """Per-device MoE compute seconds under the parallel plan (the
        dispatch/combine collectives are priced by the comm memo)."""
        if tokens <= 0:
            return 0.0
        ctx = self.ctx
        parallel = ctx.parallel
        if not self._samoyeds:
            return self._moe_cost(tokens)[0] / (parallel.ep
                                                * parallel.tp)
        dataflow_s = self._moe_cost(tokens)[1]
        segments = self._draw_segments(tokens, tp=parallel.tp)
        if self._placement is not None:
            compute_s = max(device_makespans(segments, self._placement,
                                             ctx.streams))
        else:
            compute_s = schedule_parallel(segments,
                                          ctx.streams).makespan_s
        return compute_s + dataflow_s / (parallel.ep * parallel.tp)

    def _draw_segments(self, tokens: int, tp: int = 1) -> list[float]:
        """Per-expert segment times for one step's routed load, drawn
        from the routing-skew profile.  Consumes one multinomial from
        the shared RNG per call, so seeded runs replay the recorded
        load sequence.  The per-``n_e`` triple memo persists across
        steps, which is exact: the kernel model is deterministic.
        """
        ctx = self.ctx
        routed = tokens * ctx.config.top_k
        loads = self._rng.multinomial(routed, self._popularity)
        if self._segment_kernel is None:
            self._segment_kernel = ctx.segment_kernel()
        memo = self._segments.setdefault(tp, {})
        return segment_seconds_from_loads(
            ctx.config, loads, ctx.spec, self._segment_kernel,
            ctx.effective_tile_n, tp=tp, memo=memo)
