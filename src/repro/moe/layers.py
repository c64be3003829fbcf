"""MoE layer execution engines (§6.2's five contestants).

Every engine implements the same mathematical layer —

``y[t] = sum_e gate[t,e] * expert_e(x[t])`` over each token's top-k
experts (plus unconditional shared experts) —

but with the data flow of its namesake system:

* :class:`TransformersEngine` — HuggingFace reference: materialised input
  permutation, one dense GEMM triple per expert, unfused activation,
  weighted un-permutation through global memory (Figure 5's redundancy).
* :class:`MegaBlocksEngine` — block-sparse grouped GEMM: all experts in
  one kernel, tokens padded to 128-row blocks, no permutation tensors.
* :class:`VllmEngine` — vLLM-DS fused MoE kernel: gather + GEMM + epilogue
  fused, dense weights.
* :class:`PitEngine` — PIT's permutation-invariant transformation:
  micro-tile (16-row) gathering into dense tiles; exploits activation
  sparsity only, no SpTC (§6.7).
* :class:`SamoyedsEngine` — dual-side sparse SSMM: Samoyeds weights on
  SpTC, SEL-based input selection, fused activation and weighted
  accumulation, compressed intermediate layout.

Functional ``run`` faces compute exact numpy results (dense engines agree
with each other to float tolerance; Samoyeds agrees with the pruned-weight
reference).  ``cost`` faces return simulated :class:`CostBreakdown`.
Each engine also declares its device-memory footprint —
``FIXED_OVERHEAD``, ``WEIGHT_FACTOR`` and :meth:`MoEEngine.workspace_bytes`
— which :mod:`repro.moe.memory_model` turns into Table 3's max batch.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.hw.simulator import CostBreakdown, combine
from repro.hw.spec import GPUSpec
from repro.kernels.base import MatmulKernel
from repro.kernels.gemm_dense import DenseGemmKernel
from repro.kernels.ssmm_samoyeds import SamoyedsFeatures, SamoyedsKernel
from repro.formats.samoyeds import DEFAULT_PATTERN, SamoyedsPattern
from repro.formats.selection import ColumnSelection
from repro.kernels.fusion import fused_weighted_accumulate
from repro.moe.activations import (
    get_activation,
    supported_by_fused_kernels,
)
from repro.moe.config import MoEModelConfig
from repro.moe.dataflow import permutation_seconds, unpermutation_seconds
from repro.moe.experts import ExpertWeights
from repro.moe.router import RoutingPlan
from repro.registry.capabilities import Capabilities
from repro.registry.core import Registry
from repro.utils.units import MIB

#: Bytes per element of the footprint model's fp16 tensors.
DTYPE = 2


def _expert_forward(x_e: np.ndarray, expert: ExpertWeights,
                    activation: str) -> np.ndarray:
    """Reference gated-MLP forward for one expert's token rows."""
    act = get_activation(activation)
    h_gate = x_e @ expert.gate_proj.T
    h_up = x_e @ expert.up_proj.T
    return (act(h_gate) * h_up) @ expert.down_proj.T


@dataclass(frozen=True)
class LayerWorkload:
    """The per-layer quantities every cost model needs."""

    config: MoEModelConfig
    tokens: int

    @property
    def routed_tokens_per_expert(self) -> float:
        return self.tokens * self.config.top_k / self.config.num_experts

    @property
    def total_routed_tokens(self) -> int:
        return self.tokens * self.config.top_k

    def padded_routed_tokens(self, tile_n: int) -> int:
        """Total routed tokens after per-expert padding to ``tile_n``."""
        per_expert = math.ceil(self.routed_tokens_per_expert / tile_n)
        return per_expert * tile_n * self.config.num_experts


class MoEEngine(abc.ABC):
    """Base class for the five engines."""

    name: str = "engine"
    #: Meta engines (the ``auto`` dispatcher) are registered like any
    #: other but are not contestants: figure sweeps skip them.
    is_meta: bool = False

    # ------------------------------------------------------------------
    # Capability checks (the NS markers of Figures 14-16)
    # ------------------------------------------------------------------
    def supports(self, config: MoEModelConfig) -> bool:
        return True

    def capabilities(self) -> Capabilities:
        """Declared capability metadata (queried by ``engine="auto"``
        and ``repro list engines``).  The default describes the dense
        baselines; sparse engines override."""
        return Capabilities(sparsity_format="dense", a_density=1.0,
                            mma_shapes=("mma.m16n8k16",),
                            needs_sparse_tensor_cores=False)

    def segment_kernel(self, config: MoEModelConfig,
                       spec: GPUSpec) -> "MatmulKernel | None":
        """Kernel pricing this engine's expert segments in the
        stream/placement schedulers; ``None`` keeps the caller's
        default (the Samoyeds SSMM, the paper's measurement setup)."""
        del config, spec
        return getattr(self, "_kernel", None)

    def check_supported(self, config: MoEModelConfig) -> None:
        if not self.supports(config):
            raise ConfigError(
                f"{self.name} does not support {config.name} "
                f"(activation {config.activation!r} has no fused epilogue)")

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def run(self, x: np.ndarray, plan: RoutingPlan,
            experts: list[ExpertWeights], activation: str = "silu",
            num_shared: int = 0) -> np.ndarray:
        """Exact forward pass.  ``experts`` lists routed experts first,
        then ``num_shared`` shared experts."""
        routed = experts[:len(experts) - num_shared]
        shared = experts[len(experts) - num_shared:]
        if len(routed) != plan.num_experts:
            raise ConfigError(
                f"{len(routed)} routed experts != plan's {plan.num_experts}")
        out = np.zeros_like(x, dtype=np.float64)
        self._run_routed(x, plan, routed, activation, out)
        for expert in shared:
            out += _expert_forward(x, expert, activation)
        return out.astype(x.dtype)

    def _run_routed(self, x: np.ndarray, plan: RoutingPlan,
                    experts: list[ExpertWeights], activation: str,
                    out: np.ndarray) -> None:
        """Default routed path: gather -> expert -> weighted scatter."""
        for e, expert in enumerate(experts):
            ids = plan.tokens_for(e)
            if ids.size == 0:
                continue
            y = _expert_forward(x[ids], expert, activation)
            fused_weighted_accumulate(out, y, plan.expert_gate_weights[e],
                                      ids)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def cost(self, config: MoEModelConfig, tokens: int, spec: GPUSpec,
             num_shared: int | None = None) -> CostBreakdown:
        """Simulated MoE-layer latency for ``tokens`` tokens."""

    # ------------------------------------------------------------------
    # Memory footprint (Table 3, combined by repro.moe.memory_model)
    # ------------------------------------------------------------------
    #: Framework fixed overhead in bytes: CUDA context + allocator state.
    FIXED_OVERHEAD: float
    #: Resident bytes per dense fp16 expert-weight byte, repacked copies
    #: included.
    WEIGHT_FACTOR: float

    def fixed_overhead_bytes(self, config: MoEModelConfig) -> float:
        """:attr:`FIXED_OVERHEAD` with ``config`` deployed (a meta
        engine bounds it over the engines it may pick for ``config``)."""
        del config
        return float(self.FIXED_OVERHEAD)

    def weight_factor(self, config: MoEModelConfig) -> float:
        """:attr:`WEIGHT_FACTOR` with ``config`` deployed."""
        del config
        return self.WEIGHT_FACTOR

    @abc.abstractmethod
    def workspace_bytes(self, config: MoEModelConfig,
                        seq_len: int) -> float:
        """Per-sequence MoE data-flow workspace at context ``seq_len``."""

    # Helpers shared by subclasses ------------------------------------
    def _gemms(self, config: MoEModelConfig, spec: GPUSpec, shape: int,
               routed: Callable[[int], list[CostBreakdown]],
               shared: list[CostBreakdown]) -> CostBreakdown:
        """``combine`` over the routed launches ``routed(shape)`` and the
        ``shared`` ones.

        ``shape`` is the engine's padded routed segment shape, which
        fixes the routed launches whatever the exact token count.  So
        without shared launches the aggregate is memoised on the engine
        by ``(config, spec, shape)``: a handful of keys per run, since
        every step of up to a tile's worth of tokens pads to one shape.
        With shared launches the one ``combine`` over both parts stays,
        as its ``l2_hit_fraction`` and ``launches`` mix them.
        """
        if shared:
            return combine(f"{self.name}-gemms", routed(shape) + shared)
        memo = self.__dict__.setdefault("_segment_gemms", {})
        key = (config, spec, shape)
        gemm = memo.get(key)
        if gemm is None:
            gemm = memo[key] = combine(f"{self.name}-gemms", routed(shape))
        return gemm

    def _triple(self, kernel: MatmulKernel, config: MoEModelConfig,
                n_tokens: int, spec: GPUSpec,
                label: str) -> list[CostBreakdown]:
        """The gate/up/down GEMM triple at ``n_tokens`` columns.

        Gate and up projections share one GEMM shape, so their cost is
        evaluated once and listed twice (``combine`` only reads the
        values, so repeating the breakdown is exact).
        """
        h, inter = config.hidden_size, config.intermediate_size
        n_tokens = max(1, n_tokens)
        gate_up = kernel.cost(inter, h, n_tokens, spec)
        return [gate_up, gate_up, kernel.cost(h, inter, n_tokens, spec)]

    def _shared_cost(self, kernel: MatmulKernel, config: MoEModelConfig,
                     tokens: int, spec: GPUSpec, num_shared: int
                     ) -> list[CostBreakdown]:
        # Every shared expert sees the full token batch, so one triple
        # prices them all; replicate it per expert for the combine sum.
        if num_shared <= 0:
            return []
        return self._triple(kernel, config, tokens, spec,
                            "shared") * num_shared


def _elementwise_pass_seconds(rows: int, cols: int, spec: GPUSpec,
                              passes: int = 1) -> float:
    """Unfused elementwise op: read + write per pass, plus launches."""
    per_pass = 2.0 * rows * cols * 2 / spec.dram_bandwidth
    return passes * (per_pass + spec.kernel_launch_overhead_s)


def _einsum_dispatch_bytes(config: MoEModelConfig, seq_len: int) -> float:
    """OpenMoE-style one-hot dispatch workspace (fp32 einsum path): the
    one-hot dispatch/combine tensors plus fp32 per-expert capacity
    buffers, which make its baselines' footprint explode."""
    capacity = math.ceil(seq_len * config.top_k / config.num_experts * 1.25)
    dispatch_combine = 2.0 * seq_len * config.num_experts * capacity * 4
    expert_buffers = (config.num_experts * capacity
                      * (config.hidden_size
                         + 2 * config.intermediate_size) * 4)
    return dispatch_combine + expert_buffers


def _padded_workspace_bytes(config: MoEModelConfig, seq_len: int,
                            tile_rows: int) -> float:
    """Grouped-GEMM staging: input rows plus the gate/up intermediates
    of the routed tokens, each expert padded to ``tile_rows``."""
    padded = LayerWorkload(config, seq_len).padded_routed_tokens(tile_rows)
    return (padded * config.hidden_size
            + 2.0 * padded * config.intermediate_size) * DTYPE


class TransformersEngine(MoEEngine):
    """HuggingFace Transformers reference (the paper's Vanilla)."""

    name = "transformers"
    FIXED_OVERHEAD = 800 * MIB
    WEIGHT_FACTOR = 1.0

    def __init__(self) -> None:
        self._kernel = DenseGemmKernel()

    def workspace_bytes(self, config: MoEModelConfig,
                        seq_len: int) -> float:
        if config.activation == "gelu_tanh":    # OpenMoE's T5X path
            return _einsum_dispatch_bytes(config, seq_len)
        routed = seq_len * config.top_k
        # Permuted input copies, expert-output copies and the weighted
        # un-permutation staging (Figure 5's three extra tensors).
        permuted = 3.0 * routed * config.hidden_size * DTYPE
        per_expert = (3.0 * (routed / config.num_experts)
                      * config.intermediate_size * DTYPE)
        return permuted + per_expert

    def _run_routed(self, x, plan, experts, activation, out):
        # Materialise the permuted tensors exactly as Figure 5 shows.
        for e, expert in enumerate(experts):
            ids = plan.tokens_for(e)
            if ids.size == 0:
                continue
            x_e = x[ids].copy()                       # input permutation
            y = _expert_forward(x_e, expert, activation)
            scattered = np.zeros_like(out)            # un-permutation via
            scattered[ids] = (plan.expert_gate_weights[e][:, None]
                              * y)                    # global memory
            out += scattered

    def cost(self, config: MoEModelConfig, tokens: int, spec: GPUSpec,
             num_shared: int | None = None) -> CostBreakdown:
        shared = (config.num_shared_experts if num_shared is None
                  else num_shared)
        work = LayerWorkload(config, tokens)
        n_e = max(1, round(work.routed_tokens_per_expert))
        # Every routed expert prices at the same mean load: one triple,
        # replicated per expert.
        gemm = self._gemms(
            config, spec, n_e,
            lambda n: self._triple(self._kernel, config, n, spec,
                                   "expert") * config.num_experts,
            self._shared_cost(self._kernel, config, tokens, spec, shared))
        extra_s = (
            permutation_seconds(tokens, config.hidden_size, config.top_k,
                                spec)
            + unpermutation_seconds(tokens, config.hidden_size,
                                    config.top_k, spec)
            # per-expert gather/scatter launches of the permuted flow
            + 2 * config.num_experts * spec.kernel_launch_overhead_s
            # act(gate) and *up are two unfused elementwise passes over
            # the intermediate, per expert population.
            + _elementwise_pass_seconds(work.total_routed_tokens,
                                        config.intermediate_size, spec,
                                        passes=2)
        )
        return replace(gemm, name=self.name,
                       time_s=gemm.time_s + extra_s,
                       detail={"gemm_s": gemm.time_s,
                               "dataflow_s": extra_s})


class MegaBlocksEngine(MoEEngine):
    """MegaBlocks block-sparse grouped GEMM."""

    name = "megablocks"
    BLOCK_ROWS = 128
    FIXED_OVERHEAD = 1200 * MIB
    WEIGHT_FACTOR = 2.3        # native copy + block-sparse repack + indices

    def __init__(self) -> None:
        kernel = DenseGemmKernel()
        kernel.EFFICIENCY = 0.80       # block-sparse bookkeeping overhead
        kernel.name = "megablocks-bsgemm"
        self._kernel = kernel

    def supports(self, config: MoEModelConfig) -> bool:
        return supported_by_fused_kernels(config.activation)

    def workspace_bytes(self, config: MoEModelConfig,
                        seq_len: int) -> float:
        self.check_supported(config)
        return _padded_workspace_bytes(config, seq_len, self.BLOCK_ROWS)

    def cost(self, config: MoEModelConfig, tokens: int, spec: GPUSpec,
             num_shared: int | None = None) -> CostBreakdown:
        self.check_supported(config)
        shared = (config.num_shared_experts if num_shared is None
                  else num_shared)
        work = LayerWorkload(config, tokens)
        padded_tokens = work.padded_routed_tokens(self.BLOCK_ROWS)
        gemm = self._gemms(
            config, spec, padded_tokens,
            lambda n: self._triple(self._kernel, config, n, spec, "grouped"),
            self._shared_cost(self._kernel, config, tokens, spec, shared))
        # Block gathering metadata pass + one fused act*up pass.
        extra_s = (_elementwise_pass_seconds(
                       padded_tokens, config.intermediate_size, spec)
                   + tokens * config.top_k * 8 / spec.dram_bandwidth)
        return replace(gemm, name=self.name,
                       time_s=gemm.time_s + extra_s,
                       detail={"gemm_s": gemm.time_s,
                               "dataflow_s": extra_s,
                               "padded_tokens": float(padded_tokens)})


class VllmEngine(MoEEngine):
    """vLLM-DS fused MoE kernel (the SOTA dense baseline)."""

    name = "vllm-ds"
    TILE_ROWS = 64
    FIXED_OVERHEAD = 1500 * MIB
    WEIGHT_FACTOR = 2.3        # native copy + fused-kernel layout + padding

    def __init__(self) -> None:
        kernel = DenseGemmKernel()
        kernel.EFFICIENCY = 0.85
        kernel.name = "vllm-fused-moe"
        self._kernel = kernel

    def supports(self, config: MoEModelConfig) -> bool:
        return supported_by_fused_kernels(config.activation)

    def workspace_bytes(self, config: MoEModelConfig,
                        seq_len: int) -> float:
        self.check_supported(config)
        return _padded_workspace_bytes(config, seq_len, self.TILE_ROWS)

    def cost(self, config: MoEModelConfig, tokens: int, spec: GPUSpec,
             num_shared: int | None = None) -> CostBreakdown:
        self.check_supported(config)
        shared = (config.num_shared_experts if num_shared is None
                  else num_shared)
        work = LayerWorkload(config, tokens)
        padded_tokens = work.padded_routed_tokens(self.TILE_ROWS)
        gemm = self._gemms(
            config, spec, padded_tokens,
            lambda n: self._triple(self._kernel, config, n, spec, "fused"),
            self._shared_cost(self._kernel, config, tokens, spec, shared))
        # Fused gather/epilogue: only the routing-table pass remains.
        extra_s = tokens * config.top_k * 8 / spec.dram_bandwidth
        return replace(gemm, name=self.name,
                       time_s=gemm.time_s + extra_s,
                       detail={"gemm_s": gemm.time_s,
                               "dataflow_s": extra_s,
                               "padded_tokens": float(padded_tokens)})


class PitEngine(MoEEngine):
    """PIT compiler baseline: micro-tile permutation invariance (§6.7)."""

    name = "pit"
    MICRO_TILE = 16
    FIXED_OVERHEAD = 1000 * MIB
    WEIGHT_FACTOR = 1.35       # micro-tile index tables

    def __init__(self) -> None:
        kernel = DenseGemmKernel()
        kernel.EFFICIENCY = 0.82
        kernel.name = "pit-mtile-gemm"
        self._kernel = kernel

    def workspace_bytes(self, config: MoEModelConfig,
                        seq_len: int) -> float:
        if config.activation == "gelu_tanh":    # OpenMoE's T5X path
            return _einsum_dispatch_bytes(config, seq_len)
        # The gathered micro-tiles pad the whole routed batch at once
        # (not per expert, unlike ``cost``'s segments).
        padded = (math.ceil(seq_len * config.top_k / self.MICRO_TILE)
                  * self.MICRO_TILE)
        return (2.0 * padded * config.hidden_size
                + 2.0 * padded * config.intermediate_size) * DTYPE

    def cost(self, config: MoEModelConfig, tokens: int, spec: GPUSpec,
             num_shared: int | None = None) -> CostBreakdown:
        shared = (config.num_shared_experts if num_shared is None
                  else num_shared)
        work = LayerWorkload(config, tokens)
        padded_tokens = work.padded_routed_tokens(self.MICRO_TILE)
        gemm = self._gemms(
            config, spec, padded_tokens,
            lambda n: self._triple(self._kernel, config, n, spec, "pit"),
            self._shared_cost(self._kernel, config, tokens, spec, shared))
        # The PIT transformation maintains tile index tables and performs
        # the micro-tile gather/scatter (one round trip of the inputs).
        transform = (2.0 * work.total_routed_tokens * config.hidden_size
                     * 2 / spec.dram_bandwidth
                     + 2 * spec.kernel_launch_overhead_s)
        extra_s = transform + _elementwise_pass_seconds(
            padded_tokens, config.intermediate_size, spec)
        return replace(gemm, name=self.name,
                       time_s=gemm.time_s + extra_s,
                       detail={"gemm_s": gemm.time_s,
                               "dataflow_s": extra_s,
                               "padded_tokens": float(padded_tokens)})


class SamoyedsEngine(MoEEngine):
    """The paper's system: dual-side sparse SSMM with fused data flow."""

    name = "samoyeds"
    FIXED_OVERHEAD = 600 * MIB
    #: 25% kept values (x2B) + 2-bit metadata per kept value + indices.
    WEIGHT_FACTOR = 0.28125

    def __init__(self, pattern: SamoyedsPattern = DEFAULT_PATTERN,
                 features: SamoyedsFeatures | None = None) -> None:
        self.pattern = pattern
        self.features = features or SamoyedsFeatures()
        # GEMM kernels always see a fused layout: unfused transposition
        # is an engine-level (graph-level) cost, charged once per expert
        # below rather than once per kernel launch.
        from repro.kernels.layout import LayoutPlan as _LayoutPlan
        gemm_features = replace(self.features, layout=_LayoutPlan())
        self._kernel = SamoyedsKernel(pattern=pattern,
                                      features=gemm_features)

    def tile_rows(self, config: MoEModelConfig) -> int:
        """n-tile: narrowed for many-expert models (§4.2, §6.2)."""
        return 64 if config.num_experts > 16 else 128

    def workspace_bytes(self, config: MoEModelConfig,
                        seq_len: int) -> float:
        # No permutation copies; the act(gate)*up fusion leaves a single
        # compressed intermediate (routed rows only) plus the SEL arrays.
        routed = seq_len * config.top_k
        return (routed * config.intermediate_size
                + routed * config.hidden_size / 4.0) * DTYPE

    def capabilities(self) -> Capabilities:
        return Capabilities(
            sparsity_format="samoyeds",
            a_density=self.pattern.density,
            mma_shapes=(self._kernel.mma_shape().name,),
            needs_sparse_tensor_cores=True)

    # Functional: identical math to the reference but on pruned weights
    # and through the SEL view (no permutation copies).
    def _run_routed(self, x, plan, experts, activation, out):
        act = get_activation(activation)
        xt = np.ascontiguousarray(x.T)        # §4.5: tokens as columns
        for e, expert in enumerate(experts):
            ids = plan.tokens_for(e)
            if ids.size == 0:
                continue
            pruned = expert.pruned(self.pattern)
            sel = ColumnSelection(full=xt, sel=ids)
            h_gate = pruned.gate_proj @ sel.gather()      # SSMM
            h_up = pruned.up_proj @ sel.gather()          # SSMM
            inter = act(h_gate) * h_up                    # fused epilogue
            y = (pruned.down_proj @ inter).T              # SSMM + fused acc
            fused_weighted_accumulate(out, y, plan.expert_gate_weights[e],
                                      ids)

    def run(self, x, plan, experts, activation="silu", num_shared=0):
        routed = experts[:len(experts) - num_shared]
        shared = experts[len(experts) - num_shared:]
        out = np.zeros_like(x, dtype=np.float64)
        self._run_routed(x, plan, routed, activation, out)
        for expert in shared:
            out += _expert_forward(x, expert.pruned(self.pattern),
                                   activation)
        return out.astype(x.dtype)

    #: fp32 read-modify-write of the shared accumulator in the fused
    #: weighted-accumulation epilogue (read 4B + write 4B per fp16 out).
    ACC_EPILOGUE_FACTOR = 4.0

    def cost(self, config: MoEModelConfig, tokens: int, spec: GPUSpec,
             num_shared: int | None = None) -> CostBreakdown:
        shared = (config.num_shared_experts if num_shared is None
                  else num_shared)
        work = LayerWorkload(config, tokens)
        tile_n = self.tile_rows(config)
        h, inter = config.hidden_size, config.intermediate_size
        # The kernel integrates with the model expert-by-expert (§4.5's
        # layout variants exist per operand role): each expert is one
        # SSMM segment at its own padded token count.  This is where the
        # §6.2 padding discussion bites for many-expert models.
        n_e = math.ceil(work.routed_tokens_per_expert / tile_n) * tile_n
        # All experts share the padded segment shape: one triple,
        # replicated per expert.
        gemm = self._gemms(
            config, spec, n_e,
            lambda n: self._triple(self._kernel, config, n, spec,
                                   "expert") * config.num_experts,
            self._shared_cost(self._kernel, config, tokens, spec, shared))
        # Fused weighted accumulation: the down_proj epilogue performs an
        # fp32 read-modify-write against the shared output for every
        # routed token (plus shared-expert contributions).
        acc_rows = work.total_routed_tokens + shared * tokens
        acc_s = (self.ACC_EPILOGUE_FACTOR * acc_rows * h
                 / spec.dram_bandwidth)
        # The act(gate)*up fusion happens in the up_proj epilogue, which
        # re-reads the materialised gate output: one intermediate round
        # trip survives even in the fused pipeline.
        inter_rt_s = (2.0 * (n_e * config.num_experts + shared * tokens)
                      * inter * 2 / spec.dram_bandwidth)
        extra_s = acc_s + inter_rt_s
        if not self.features.layout.fused_input_transpose:
            # Ablation stages before +T: the graph-level transposition of
            # (W^T x^T)^T is materialised — one input and one output
            # transpose per expert over the hidden dimension.
            per_expert = 2.0 * (2.0 * h * n_e * 2 / spec.dram_bandwidth
                                + spec.kernel_launch_overhead_s)
            extra_s += per_expert * config.num_experts
        if not self.features.input_selection:
            # Ablation +W: weight sparsity only — the permuted data flow
            # of the reference implementation comes back, including its
            # per-expert gather/scatter launch storm.
            extra_s += permutation_seconds(tokens, h, config.top_k,
                                           spec)
            extra_s += unpermutation_seconds(tokens, h, config.top_k,
                                             spec)
            extra_s += (2 * config.num_experts
                        * spec.kernel_launch_overhead_s)
        padded_tokens = n_e * config.num_experts
        return replace(gemm, name=self.name,
                       time_s=gemm.time_s + extra_s,
                       detail={"gemm_s": gemm.time_s,
                               "dataflow_s": extra_s,
                               "padded_tokens": float(padded_tokens)})


#: Engine registry in the paper's legend order.  A sixth entry,
#: ``"auto"`` (the cost-driven dispatcher), is registered by
#: :mod:`repro.registry.selector`, which :mod:`repro.moe` imports.
ENGINES: Registry[MoEEngine] = Registry("engine")


def register_engine(engine: MoEEngine,
                    replace: bool = False) -> MoEEngine:
    """Add ``engine`` to the registry under its ``name``.

    Collisions raise :class:`ConfigError` unless ``replace=True``
    (mirrors :func:`repro.hw.spec.register_gpu`).  This is the whole
    third-party surface: subclass :class:`MoEEngine`, declare
    :meth:`~MoEEngine.capabilities` and the memory footprint
    (``FIXED_OVERHEAD``, ``WEIGHT_FACTOR``,
    :meth:`~MoEEngine.workspace_bytes`), register — every front door
    (``ExecutionContext``, specs, CLI, ``engine="auto"``, the memory
    model) then sees it.
    """
    return ENGINES.register(engine.name, engine, replace=replace)


for _engine in (TransformersEngine(), MegaBlocksEngine(), VllmEngine(),
                PitEngine(), SamoyedsEngine()):
    register_engine(_engine)
del _engine
