"""Device-memory footprint model -> maximum batch size (Table 3).

Models a single decoder layer, matching the paper's measurement setup
(§6.3).  The footprint has four parts:

* **weights** — attention QKVO plus all expert projections.  Dense fp16
  for the baselines; the Samoyeds encoding stores 28.125% of that
  (25% values at fp16 + 2-bit metadata per stored value + indices).
  MegaBlocks and vLLM-DS additionally hold a *repacked copy* of the
  expert weights in their kernel-native layouts — the transient that
  makes both frameworks OOM on Mixtral-8x22B at batch 1.
* **fixed overhead** — CUDA context + framework allocator state.
* **per-batch workspace** — KV cache, resident activations and the MoE
  data-flow buffers of each engine.  OpenMoE's T5X-style *einsum
  dispatch* (one-hot dispatch/combine tensors plus fp32 per-expert
  capacity buffers) is what makes its baseline footprint explode and
  yields the paper's out-sized 18.67x max-batch boost for Samoyeds.
* **fragmentation margin** — 5% of capacity held back, as allocators do.

The engine-specific terms belong to the engines
(:mod:`repro.moe.layers`): each declares ``FIXED_OVERHEAD``,
``WEIGHT_FACTOR`` and ``workspace_bytes``.  Every function here takes
an engine *name*, resolves it through the ``ENGINES`` registry and
asks the engine.  The cost-driven dispatcher (the ``auto`` engine)
answers each term with the maximum over the fixed engines that support
the model, so admission control can never over-admit whichever engine
the selector picks per step.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import CapacityError, ConfigError
from repro.hw.interconnect import ParallelPlan
from repro.hw.spec import GPUSpec
from repro.moe.config import MoEModelConfig
from repro.moe.layers import DTYPE, ENGINES
from repro.utils.units import GIB

FRAGMENTATION = 0.05


def fixed_overhead_bytes(config: MoEModelConfig, engine: str) -> float:
    """Framework fixed overhead of ``engine`` with ``config`` deployed."""
    return ENGINES.get(engine).fixed_overhead_bytes(config)


@dataclass(frozen=True)
class MemoryFootprint:
    """Byte-level decomposition of one engine's footprint."""

    engine: str
    weights_bytes: float
    fixed_bytes: float
    per_batch_bytes: float
    capacity_bytes: float

    @property
    def available_for_batches(self) -> float:
        return (self.capacity_bytes * (1.0 - FRAGMENTATION)
                - self.weights_bytes - self.fixed_bytes)

    def max_batch(self) -> int:
        """Largest batch count that fits (0 = OOM even at batch 1)."""
        if self.per_batch_bytes <= 0:
            raise ConfigError("per-batch bytes must be positive")
        return max(0, int(self.available_for_batches
                          // self.per_batch_bytes))

    def require_batch(self, batch: int) -> None:
        """Raise :class:`CapacityError` if ``batch`` does not fit."""
        need_bytes = (self.weights_bytes + self.fixed_bytes
                      + batch * self.per_batch_bytes)
        have_bytes = self.capacity_bytes * (1.0 - FRAGMENTATION)
        if need_bytes > have_bytes:
            raise CapacityError(
                f"{self.engine}: batch {batch} needs "
                f"{need_bytes / GIB:.2f} GiB > "
                f"{have_bytes / GIB:.2f} GiB available",
                required_bytes=int(need_bytes),
                available_bytes=int(have_bytes))


def weight_bytes(config: MoEModelConfig, engine: str,
                 parallel: ParallelPlan | None = None,
                 device_experts: int | None = None) -> float:
    """Resident weight bytes of one decoder layer for ``engine``.

    With a non-trivial ``parallel`` plan the result is *per device*:
    attention weights are tensor-sharded over ``tp``; routed expert
    weights are partitioned over ``ep`` (``device_experts`` prices a
    concrete placement — e.g. the most loaded device of a skew-aware
    placement — defaulting to the uniform ``1/ep`` share) and
    tensor-sharded over ``tp``; shared experts replicate across the
    expert-parallel group (every token visits them) but still shard
    over ``tp``.
    """
    factor = ENGINES.get(engine).weight_factor(config)
    attn = config.attention_param_count * DTYPE
    moe_dense = config.moe_param_count * DTYPE
    trivial = parallel is None or parallel.is_trivial
    if trivial and device_experts is None:
        # Attention stays dense for every engine: the paper (and the
        # sparse baselines) prune or repack expert weights only.
        return attn + moe_dense * factor
    plan = parallel if parallel is not None else ParallelPlan()
    if device_experts is not None:
        if not 0 <= device_experts <= config.num_experts:
            raise ConfigError(
                f"device_experts={device_experts} outside "
                f"[0, {config.num_experts}]")
        routed_frac = device_experts / config.num_experts
    else:
        routed_frac = 1.0 / plan.ep
    routed = (config.num_experts * config.expert_param_count * DTYPE
              * factor * routed_frac)
    shared = (config.num_shared_experts * config.expert_param_count
              * DTYPE * factor)
    return (attn + routed + shared) / plan.tp


def kv_cache_bytes(config: MoEModelConfig, seq_len: int) -> float:
    """K+V cache for one layer, one sequence."""
    return 2.0 * seq_len * config.hidden_size * DTYPE


def _base_activation_bytes(config: MoEModelConfig, seq_len: int) -> float:
    """Hidden-state buffers every engine keeps (residual, norms, attn)."""
    return 6.0 * seq_len * config.hidden_size * DTYPE


def moe_workspace_bytes(config: MoEModelConfig, seq_len: int,
                        engine: str) -> float:
    """Per-sequence MoE data-flow workspace for ``engine``."""
    return ENGINES.get(engine).workspace_bytes(config, seq_len)


def footprint(config: MoEModelConfig, engine: str, seq_len: int,
              spec: GPUSpec, parallel: ParallelPlan | None = None,
              device_experts: int | None = None) -> MemoryFootprint:
    """Full memory decomposition of one engine on one device.

    With a non-trivial ``parallel`` plan this is the footprint of one
    *shard* device (capacity stays one device's DRAM), so
    :meth:`MemoryFootprint.max_batch` becomes the per-device batch
    ceiling the serving engine gates admission on.
    """
    return MemoryFootprint(
        engine=engine,
        weights_bytes=weight_bytes(config, engine, parallel,
                                   device_experts),
        fixed_bytes=fixed_overhead_bytes(config, engine),
        per_batch_bytes=per_sequence_bytes(config, engine, seq_len,
                                           parallel),
        capacity_bytes=float(spec.dram_capacity),
    )


def max_batch_size(config: MoEModelConfig, engine: str, seq_len: int,
                   spec: GPUSpec) -> int:
    """Table 3's quantity: the largest batch size that fits in memory."""
    return footprint(config, engine, seq_len, spec).max_batch()


def per_sequence_bytes(config: MoEModelConfig, engine: str,
                       seq_len: int,
                       parallel: ParallelPlan | None = None) -> float:
    """Peak per-sequence bytes at context length ``seq_len``.

    Exactly the ``per_batch_bytes`` term of :func:`footprint`, exposed so
    request-level admission control charges each sequence the same price
    the Table-3 model charges a batch element — which is what makes the
    serving simulator's emergent concurrency limit agree with Table 3.

    With a non-trivial ``parallel`` plan the result is the *per-device*
    share: the KV cache shards across the ``tp`` group (heads split,
    Megatron-style); the MoE data-flow workspace splits across both
    ``ep`` (each device stages only its own experts' routed tokens) and
    ``tp`` (the expert inner dimension shards); the residual/norm
    activation buffers hold the full hidden state on every device (the
    all-reduce rematerialises it) and do not shrink.
    """
    kv_bytes = kv_cache_bytes(config, seq_len)
    act_bytes = _base_activation_bytes(config, seq_len)
    work_bytes = moe_workspace_bytes(config, seq_len, engine)
    if parallel is None or parallel.is_trivial:
        return kv_bytes + act_bytes + work_bytes
    return (kv_bytes / parallel.tp + act_bytes
            + work_bytes / (parallel.ep * parallel.tp))


@dataclass
class MemoryLedger:
    """Time-varying device-memory ledger for a serving engine.

    Static state (weights + framework overhead) is charged up front;
    subclasses implement the admission policy:

    * :class:`KVCacheTracker` — conservative vLLM-v0-style admission:
      each request reserves its *peak* footprint up front, so growth can
      never fail;
    * :class:`BlockAllocator` — paged admission: each request is charged
      only the fixed-size token blocks that are currently live, so the
      same budget sustains more concurrent requests, at the price that
      :meth:`grow_each` can refuse a growth mid-decode (the serving
      engine resolves that by preempting the youngest request).

    ``live_bytes`` reports the instantaneous static + KV footprint as
    caches grow token by token; ``reserved_bytes`` reports what the
    admission policy has actually charged.  The serving metrics sample
    both per step.

    Every charge is a whole number of bytes, and the ledger keeps
    running totals of the charged bytes and the resident KV tokens that
    :meth:`admit`, :meth:`grow_each` and :meth:`release` update, so
    every query is O(1) in the number of resident requests.
    :meth:`recount` recomputes the totals from the per-request state.
    """

    config: MoEModelConfig
    engine: str
    spec: GPUSpec
    parallel: ParallelPlan | None = None
    device_experts: int | None = None

    def __post_init__(self) -> None:
        self.static_bytes = (weight_bytes(self.config, self.engine,
                                          self.parallel,
                                          self.device_experts)
                             + fixed_overhead_bytes(self.config, self.engine))
        self.budget_bytes = (float(self.spec.dram_capacity)
                             * (1.0 - FRAGMENTATION))
        self._context: dict[int, int] = {}
        self._resident_tokens = 0
        self._charged_bytes = 0

    # -- shared arithmetic ---------------------------------------------
    def sequence_bytes(self, seq_len: int) -> int:
        """Whole bytes charged for a ``seq_len``-token context: the
        Table-3 per-sequence model, rounded up."""
        return math.ceil(per_sequence_bytes(self.config, self.engine,
                                            seq_len, self.parallel))

    @property
    def charged_bytes(self) -> int:
        """Bytes charged to resident requests (static excluded)."""
        return self._charged_bytes

    @property
    def resident_tokens(self) -> int:
        """Live KV tokens summed over the resident requests."""
        return self._resident_tokens

    @property
    def reserved_bytes(self) -> float:
        """Bytes the admission policy has charged (static included)."""
        return self.static_bytes + self._charged_bytes

    @property
    def free_bytes(self) -> float:
        return self.budget_bytes - self.reserved_bytes

    def _require(self, request_id: int) -> None:
        if request_id not in self._context:
            raise ConfigError(f"unknown request {request_id}")

    # -- admission policy (per subclass) -------------------------------
    def can_admit_request(self, prompt_tokens: int,
                          final_seq_len: int) -> bool:
        """Would a request fit, with ``prompt_tokens`` of KV resident
        immediately and a lifetime peak of ``final_seq_len`` tokens?"""
        raise NotImplementedError

    def admit(self, request_id: int, prompt_tokens: int,
              final_seq_len: int) -> None:
        """Charge a new request (``prompt_tokens`` = immediately-live
        KV context; 0 under chunked prefill)."""
        raise NotImplementedError

    def admission_chunk(self, desired_tokens: int,
                        final_seq_len: int) -> int:
        """Largest first prefill chunk (<= ``desired_tokens``) admissible
        now; 0 means the request cannot be admitted this step."""
        raise NotImplementedError

    def clamp_growth(self, request_id: int, desired_tokens: int) -> int:
        """Largest growth (<= ``desired_tokens``) :meth:`grow_each`
        would charge an admitted request."""
        raise NotImplementedError

    def peak_bytes(self, final_seq_len: int) -> int:
        """Bytes this policy charges a request at its lifetime peak."""
        raise NotImplementedError

    def _enter(self, request_id: int, prompt_tokens: int,
               charge_bytes: int) -> None:
        """Record an admitted request and its charge."""
        self._context[request_id] = prompt_tokens
        self._resident_tokens += prompt_tokens
        self._charged_bytes += charge_bytes

    def fit_count(self, request_ids: Sequence[int],
                  new_tokens: int = 1) -> int:
        """How many of ``request_ids``, taken in order, the pool can
        grow by ``new_tokens`` together: the count :meth:`grow_each`
        would grow.  Charges nothing.

        Here growth is free (a conservative ledger reserved each peak
        at admission), so every request fits.
        """
        context = self._context
        for rid in request_ids:
            if rid not in context:
                self._require(rid)
        return len(request_ids)

    def grow_each(self, request_ids: Sequence[int],
                  new_tokens: int = 1) -> int:
        """Advance the live KV context of each of ``request_ids`` by
        ``new_tokens``, in the order given, stopping before the first
        growth the pool cannot back (charging nothing for it).

        Returns how many requests grew.  The result, and every charge,
        equals growing the requests one call each until one is refused.
        """
        grown = self.fit_count(request_ids, new_tokens)
        context = self._context
        for rid in request_ids:
            context[rid] += new_tokens
        self._resident_tokens += grown * new_tokens
        return grown

    def release(self, request_id: int) -> None:
        """Free a finished (or preempted) request's charge."""
        self._resident_tokens -= self._context.pop(request_id, 0)

    def recount(self) -> dict[str, int]:
        """The running totals recomputed from the per-request state, in
        O(residents): each must equal the property of the same name."""
        return {"resident_tokens": sum(self._context.values())}

    def max_concurrent(self, seq_len: int) -> int:
        """Emergent concurrency limit for uniform fully-grown
        ``seq_len`` requests.

        Equals :meth:`MemoryFootprint.max_batch` by construction (for
        the paged policy: at block-aligned ``seq_len``) — the serving
        engine reproduces Table 3 without consulting it.
        """
        per_seq_bytes = self.peak_bytes(seq_len)
        if per_seq_bytes <= 0:
            raise ConfigError("per-sequence bytes must be positive")
        return max(0, int((self.budget_bytes - self.static_bytes)
                          // per_seq_bytes))

    # -- observation ---------------------------------------------------
    @property
    def active_requests(self) -> int:
        return len(self._context)

    @property
    def live_bytes(self) -> float:
        """Instantaneous footprint: static + grown-so-far KV caches."""
        kv_bytes = kv_cache_bytes(self.config, self._resident_tokens)
        if self.parallel is not None and not self.parallel.is_trivial:
            kv_bytes /= self.parallel.tp
        return self.static_bytes + kv_bytes

    @property
    def pool_utilisation(self) -> float:
        """Charged fraction of the post-static memory pool, in [0, 1+)."""
        return self._utilisation(self.reserved_bytes)

    def _utilisation(self, reserved_bytes: float) -> float:
        """:attr:`pool_utilisation` with ``reserved_bytes`` charged."""
        pool_bytes = self.budget_bytes - self.static_bytes
        if pool_bytes <= 0:
            return 0.0
        return max(0.0, (reserved_bytes - self.static_bytes) / pool_bytes)


@dataclass
class KVCacheTracker(MemoryLedger):
    """Conservative admission: reserve each request's peak footprint.

    Each admitted request reserves KV cache at its full final context
    plus the engine's per-sequence workspace, so decode steps can never
    OOM mid-request (the vLLM-style conservative admission policy).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self._reserved: dict[int, int] = {}

    def can_admit(self, final_seq_len: int) -> bool:
        """Would a request peaking at ``final_seq_len`` tokens fit?"""
        return self.sequence_bytes(final_seq_len) <= self.free_bytes

    def can_admit_request(self, prompt_tokens: int,
                          final_seq_len: int) -> bool:
        return self.can_admit(final_seq_len)

    def admit(self, request_id: int, prompt_tokens: int,
              final_seq_len: int) -> None:
        """Reserve a request's peak footprint (raises on overflow)."""
        if request_id in self._reserved:
            raise ConfigError(f"request {request_id} already admitted")
        need_bytes = self.sequence_bytes(final_seq_len)
        if need_bytes > self.free_bytes:
            raise CapacityError(
                f"{self.engine}: request {request_id} needs "
                f"{need_bytes / GIB:.2f} GiB > "
                f"{self.free_bytes / GIB:.2f} GiB "
                f"free", required_bytes=int(need_bytes),
                available_bytes=int(max(self.free_bytes, 0)))
        self._reserved[request_id] = need_bytes
        self._enter(request_id, prompt_tokens, need_bytes)

    def admission_chunk(self, desired_tokens: int,
                        final_seq_len: int) -> int:
        return desired_tokens if self.can_admit(final_seq_len) else 0

    def clamp_growth(self, request_id: int, desired_tokens: int) -> int:
        self._require(request_id)
        return desired_tokens          # peak already reserved at admit

    def peak_bytes(self, final_seq_len: int) -> int:
        return self.sequence_bytes(final_seq_len)

    def release(self, request_id: int) -> None:
        self._charged_bytes -= self._reserved.pop(request_id, 0)
        super().release(request_id)

    def recount(self) -> dict[str, int]:
        return {**super().recount(),
                "charged_bytes": sum(self._reserved.values())}


@dataclass
class BlockAllocator(MemoryLedger):
    """Paged admission: charge only the live fixed-size token blocks.

    The KV cache of each request is held in ``page_size``-token blocks;
    a request with ``n`` live blocks is charged exactly what the Table-3
    per-sequence model charges a context of ``n * page_size`` tokens —
    KV cache plus the engine's per-sequence workspace — so the cumulative
    price of a fully-grown request telescopes to the conservative
    tracker's reservation, and a uniform trace of block-aligned requests
    still saturates at :meth:`MemoryFootprint.max_batch` concurrent
    requests.  Until then, the headroom the conservative policy wastes on
    not-yet-generated tokens admits extra requests.

    :meth:`grow_each` stops before the first growth whose new block the
    pool cannot back; the serving engine answers by preempting the
    youngest resident request (recompute-on-readmit).
    """

    page_size: int = 16

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.page_size <= 0:
            raise ConfigError("page_size must be positive")
        self._blocks: dict[int, int] = {}
        self._used_blocks = 0
        self._cum_memo: dict[int, int] = {0: 0}

    # -- block arithmetic ----------------------------------------------
    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` KV entries."""
        return -(-max(tokens, 0) // self.page_size)

    def block_bytes(self, blocks: int) -> int:
        """Cumulative charge for one request's first ``blocks`` blocks.

        Priced by the Table-3 per-sequence model at the padded context,
        so per-block marginals telescope exactly to
        :meth:`sequence_bytes`.
        """
        cached_bytes = self._cum_memo.get(blocks)
        if cached_bytes is None:
            cached_bytes = self.sequence_bytes(blocks * self.page_size)
            self._cum_memo[blocks] = cached_bytes
        return cached_bytes

    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    def recount(self) -> dict[str, int]:
        return {**super().recount(),
                "charged_bytes": sum(self.block_bytes(blocks)
                                     for blocks in self._blocks.values()),
                "used_blocks": sum(self._blocks.values())}

    # -- admission policy ----------------------------------------------
    def can_admit_request(self, prompt_tokens: int,
                          final_seq_len: int) -> bool:
        return (self.block_bytes(self.blocks_for(prompt_tokens))
                <= self.free_bytes)

    def admit(self, request_id: int, prompt_tokens: int,
              final_seq_len: int) -> None:
        """Allocate blocks for the immediately-live context only."""
        if request_id in self._blocks:
            raise ConfigError(f"request {request_id} already admitted")
        blocks = self.blocks_for(prompt_tokens)
        need_bytes = self.block_bytes(blocks)
        if need_bytes > self.free_bytes:
            raise CapacityError(
                f"{self.engine}: request {request_id} needs {blocks} "
                f"blocks ({need_bytes / GIB:.2f} GiB) > "
                f"{self.free_bytes / GIB:.2f} GiB free",
                required_bytes=int(need_bytes),
                available_bytes=int(max(self.free_bytes, 0)))
        self._blocks[request_id] = blocks
        self._used_blocks += blocks
        self._enter(request_id, prompt_tokens, need_bytes)

    def _grantable_blocks(self, low: int, high: int, held: int) -> int:
        """The most blocks in ``[low, high]`` whose charge beyond the
        first ``held`` fits in :attr:`free_bytes` (``low`` when no more
        do).

        A bisection over :meth:`block_bytes`, which is non-decreasing
        because every term of :func:`per_sequence_bytes` is
        non-decreasing in the context length: it returns what a walk up
        from ``low``, one block at a time, returns.
        """
        held_bytes = self.block_bytes(held)
        return low + bisect.bisect_right(
            range(low + 1, high + 1), self.free_bytes,
            key=lambda blocks: self.block_bytes(blocks) - held_bytes)

    def admission_chunk(self, desired_tokens: int,
                        final_seq_len: int) -> int:
        if desired_tokens <= 0:
            return 0
        blocks = self._grantable_blocks(
            0, self.blocks_for(desired_tokens), held=0)
        return min(desired_tokens, blocks * self.page_size)

    def clamp_growth(self, request_id: int, desired_tokens: int) -> int:
        self._require(request_id)
        if desired_tokens <= 0:
            return 0
        held = self._blocks[request_id]
        context = self._context[request_id]
        if context + desired_tokens <= held * self.page_size:
            return desired_tokens      # fits in the blocks already held
        blocks = self._grantable_blocks(
            max(held, self.blocks_for(context)),
            self.blocks_for(context + desired_tokens), held)
        return max(0, min(desired_tokens,
                          blocks * self.page_size - context))

    def peak_bytes(self, final_seq_len: int) -> int:
        return self.block_bytes(self.blocks_for(final_seq_len))

    def fit_count(self, request_ids: Sequence[int],
                  new_tokens: int = 1) -> int:
        return self._advance(request_ids, new_tokens, commit=False)

    def grow_each(self, request_ids: Sequence[int],
                  new_tokens: int = 1) -> int:
        """Advance each context in order, allocating blocks across
        boundaries, up to the first growth whose new blocks the pool
        cannot back."""
        return self._advance(request_ids, new_tokens, commit=True)

    def _advance(self, request_ids: Sequence[int], new_tokens: int,
                 commit: bool) -> int:
        """The block walk behind :meth:`fit_count` and
        :meth:`grow_each`: count (and on ``commit`` charge) each growth
        in order against what the earlier ones left free."""
        context, blocks, page = self._context, self._blocks, self.page_size
        budget_bytes, static_bytes = self.budget_bytes, self.static_bytes
        charged_bytes = self._charged_bytes
        grown = new_blocks = 0
        try:
            for rid in request_ids:
                if rid not in context:
                    self._require(rid)
                tokens = context[rid] + new_tokens
                held = blocks[rid]
                if tokens > held * page:     # crosses a block boundary
                    needed = self.blocks_for(tokens)
                    delta_bytes = (self.block_bytes(needed)
                                   - self.block_bytes(held))
                    # The same expression as ``free_bytes``.
                    if delta_bytes > budget_bytes - (static_bytes
                                                     + charged_bytes):
                        break
                    charged_bytes += delta_bytes
                    if commit:
                        blocks[rid] = needed
                        new_blocks += needed - held
                if commit:
                    context[rid] = tokens
                grown += 1
        finally:                # an unknown request raises part-way
            if commit:
                self._charged_bytes = charged_bytes
                self._used_blocks += new_blocks
                self._resident_tokens += grown * new_tokens
        return grown

    def grow_steps(self, request_ids: Sequence[int], steps: int
                   ) -> tuple[int, list[tuple[int, float, float]]]:
        """Grow each of the distinct ``request_ids`` by one token a step
        for up to ``steps`` steps, stopping before the first step with a
        growth the pool cannot back: the steps that successive one-token
        ``grow_each(request_ids)`` calls grow whole, charged the same.

        A request holds the blocks its context needs, so it crosses
        into a new block at step ``held * page_size - context + 1`` —
        within the first ``page_size`` steps — and every ``page_size``
        steps after.  The crossings are replayed in those calls' order
        — step, then the order given — with :meth:`_advance`'s
        comparison, so the steps that fit and every charge are theirs to
        the byte, at a full pool too.  Returns how many steps grew and,
        for each grown step that crossed a block (steps count from 1),
        ``(step, reserved_bytes, pool_utilisation)`` as the ledger
        reports them after it.
        """
        context, blocks, page = self._context, self._blocks, self.page_size
        budget_bytes, static_bytes = self.budget_bytes, self.static_bytes
        block_bytes = self.block_bytes
        # (steps before the first crossing, position, blocks held):
        # sorted, each page-long window of steps meets the crossings in
        # this order.
        crossings = []
        for position, rid in enumerate(request_ids):
            if rid not in context:
                self._require(rid)
            held = blocks[rid]
            crossings.append((held * page - context[rid], position, held))
        crossings.sort()
        charged_bytes = self._charged_bytes
        charged: list[tuple[int, int]] = []    # (step, charged after it)
        grown = max(steps, 0)
        for window in range(-(-grown // page)):
            start = window * page
            if start >= grown:
                break
            for wait, _, held in crossings:
                step = start + wait + 1
                if step > grown:
                    break
                held += window
                delta_bytes = block_bytes(held + 1) - block_bytes(held)
                # The same expression as ``_advance``.
                if delta_bytes > budget_bytes - (static_bytes
                                                 + charged_bytes):
                    grown = step - 1
                    if charged and charged[-1][0] == step:
                        charged.pop()  # the refused step grows nothing
                    break
                charged_bytes += delta_bytes
                if charged and charged[-1][0] == step:
                    charged[-1] = (step, charged_bytes)
                else:
                    charged.append((step, charged_bytes))
        if not grown:
            return 0, []
        new_blocks = 0
        for rid in request_ids:
            context[rid] += grown
            needed = self.blocks_for(context[rid])
            new_blocks += needed - blocks[rid]
            blocks[rid] = needed
        if charged:
            self._charged_bytes = charged[-1][1]
        self._used_blocks += new_blocks
        self._resident_tokens += grown * len(request_ids)
        return grown, [(step, static_bytes + bytes_,
                        self._utilisation(static_bytes + bytes_))
                       for step, bytes_ in charged]

    def release(self, request_id: int) -> None:
        blocks = self._blocks.pop(request_id, 0)
        self._used_blocks -= blocks
        self._charged_bytes -= self.block_bytes(blocks)
        super().release(request_id)


class DeviceLedgers:
    """One :class:`MemoryLedger` per cluster device, gated on the
    bottleneck.

    Under expert/tensor parallelism every admitted request occupies all
    devices of the grid — its KV cache shards over the ``tp`` group and
    its routed tokens visit experts on every ``ep`` device — but the
    devices are *not* symmetric: a skew-aware placement leaves some
    devices holding more expert weights than others.  This composite
    presents the single-ledger interface the batchers and the serving
    engine already speak, fanning every charge out to all per-device
    ledgers and answering every query from the most constrained device,
    so admission is gated on the bottleneck and admission and growth
    are all-or-nothing (no device is charged unless every device can
    back the charge).
    """

    def __init__(self, ledgers: "list[MemoryLedger]") -> None:
        if not ledgers:
            raise ConfigError("DeviceLedgers needs at least one ledger")
        self.ledgers = list(ledgers)

    @classmethod
    def create(cls, config: MoEModelConfig, engine: str,
               gpus: "list[GPUSpec] | tuple[GPUSpec, ...]",
               parallel: ParallelPlan,
               expert_counts: "list[int] | tuple[int, ...] | None" = None,
               page_size: int | None = None) -> "DeviceLedgers":
        """Build the ``ep * tp`` grid of per-device ledgers.

        ``gpus`` lists one spec per grid device; ``expert_counts`` is
        the per-EP-rank expert census of the placement (device ``d``
        belongs to EP rank ``d // tp``), defaulting to the uniform
        ``1/ep`` share.
        """
        devices = parallel.ep * parallel.tp
        if len(gpus) < devices:
            raise ConfigError(
                f"{len(gpus)} devices for an ep={parallel.ep} x "
                f"tp={parallel.tp} grid")
        if expert_counts is not None and len(expert_counts) != parallel.ep:
            raise ConfigError(
                f"{len(expert_counts)} expert counts for ep={parallel.ep}")
        ledgers: list[MemoryLedger] = []
        for d in range(devices):
            experts = (expert_counts[d // parallel.tp]
                       if expert_counts is not None else None)
            if page_size:
                ledgers.append(BlockAllocator(
                    config, engine, gpus[d], parallel=parallel,
                    device_experts=experts, page_size=page_size))
            else:
                ledgers.append(KVCacheTracker(
                    config, engine, gpus[d], parallel=parallel,
                    device_experts=experts))
        return cls(ledgers)

    # -- bottleneck queries --------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.ledgers)

    @property
    def static_bytes(self) -> float:
        """Bottleneck device's static charge."""
        return max(led.static_bytes for led in self.ledgers)

    @property
    def budget_bytes(self) -> float:
        """Tightest per-device budget."""
        return min(led.budget_bytes for led in self.ledgers)

    @property
    def reserved_bytes(self) -> float:
        """Cluster-wide charged bytes (summed over devices)."""
        return sum(led.reserved_bytes for led in self.ledgers)

    @property
    def live_bytes(self) -> float:
        """Cluster-wide instantaneous footprint."""
        return sum(led.live_bytes for led in self.ledgers)

    @property
    def free_bytes(self) -> float:
        """Free bytes on the most constrained device."""
        return min(led.free_bytes for led in self.ledgers)

    @property
    def pool_utilisation(self) -> float:
        """Bottleneck device's charged pool fraction."""
        return max(led.pool_utilisation for led in self.ledgers)

    @property
    def active_requests(self) -> int:
        return self.ledgers[0].active_requests

    def sequence_bytes(self, seq_len: int) -> int:
        return max(led.sequence_bytes(seq_len) for led in self.ledgers)

    def peak_bytes(self, final_seq_len: int) -> int:
        return max(led.peak_bytes(final_seq_len) for led in self.ledgers)

    def max_concurrent(self, seq_len: int) -> int:
        return min(led.max_concurrent(seq_len) for led in self.ledgers)

    # -- admission policy (fan-out, bottleneck-gated) ------------------
    def can_admit_request(self, prompt_tokens: int,
                          final_seq_len: int) -> bool:
        return all(led.can_admit_request(prompt_tokens, final_seq_len)
                   for led in self.ledgers)

    def admit(self, request_id: int, prompt_tokens: int,
              final_seq_len: int) -> None:
        """All-or-nothing admission: a device that cannot back the
        request raises its own :class:`CapacityError` (which charges
        nothing) before any device is charged."""
        for led in self.ledgers:
            if not led.can_admit_request(prompt_tokens, final_seq_len):
                led.admit(request_id, prompt_tokens, final_seq_len)  # raises
        for led in self.ledgers:
            led.admit(request_id, prompt_tokens, final_seq_len)

    def admission_chunk(self, desired_tokens: int,
                        final_seq_len: int) -> int:
        return min(led.admission_chunk(desired_tokens, final_seq_len)
                   for led in self.ledgers)

    def clamp_growth(self, request_id: int, desired_tokens: int) -> int:
        return min(led.clamp_growth(request_id, desired_tokens)
                   for led in self.ledgers)

    def fit_count(self, request_ids: Sequence[int],
                  new_tokens: int = 1) -> int:
        """The least of the per-device fit counts: a growth fits the
        grid when it fits every device."""
        return min(led.fit_count(request_ids, new_tokens)
                   for led in self.ledgers)

    def grow_each(self, request_ids: Sequence[int],
                  new_tokens: int = 1) -> int:
        """All-or-nothing bulk growth: each request in the prefix that
        fits every device grows on every device; the rest on none."""
        grown = self.fit_count(request_ids, new_tokens)
        prefix = request_ids[:grown]
        for led in self.ledgers:
            led.grow_each(prefix, new_tokens)
        return grown

    def release(self, request_id: int) -> None:
        for led in self.ledgers:
            led.release(request_id)
