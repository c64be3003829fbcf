"""The Samoyeds sparse-sparse matrix-multiplication (SSMM) kernel.

This is the paper's primary contribution: a kernel computing

``C[m, len_d] = A_samoyeds[m, k] @ B[k, :][:, SEL]``

where A is in the dual `(N, M, V)` + 2:4 weight format and B is read
through the SEL column-selection array — no permutation tensors, no dense
zero traffic.  Three faces are provided:

* :func:`samoyeds_ssmm` — functional reference (decode + gather + matmul);
* :func:`samoyeds_ssmm_tiled` — a faithful Algorithm-1 walk: iterates
  sub-row blocks, resolves ``indices`` to scatter partial products into
  the right output rows (the C_IR shuffle), and consumes ``metadata``
  through the 2:4 decode — used to validate the format plumbing;
* :class:`SamoyedsKernel` — the performance model, with feature flags
  mirroring §4.2-4.5 so the ablation benches can disable each
  optimisation individually.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ShapeError
from repro.formats.samoyeds import SamoyedsPattern, SamoyedsWeight
from repro.formats.selection import ColumnSelection
from repro.formats.twofour import TwoFourMatrix
from repro.hw.memory import AccessPattern, dram_bytes, smem_load_cycles
from repro.hw.spec import GPUSpec
from repro.hw.tensorcore import SAMOYEDS_MMA, MmaShape, require_sparse_alu
from repro.kernels.base import GemmProblem, MatmulKernel
from repro.kernels.layout import LayoutPlan, extra_layout_passes_seconds
from repro.kernels.packing import PackingPlan, metadata_tile_bytes
from repro.kernels.stationary import (
    local_memory_spill_cost,
    stationary_register_cost,
)
from repro.kernels.tiling import TilingConfig, heuristic_config


# ----------------------------------------------------------------------
# Functional implementations
# ----------------------------------------------------------------------

def samoyeds_ssmm(weight: SamoyedsWeight, inputs: ColumnSelection,
                  compressed_output: bool = True) -> np.ndarray:
    """Reference SSMM: exact result via decode + gather.

    Returns the compressed ``(m, len_d)`` output, or the scattered
    ``(m, n_full)`` output (zero columns included) when
    ``compressed_output`` is False — both mathematically equivalent to
    the dense computation on the pruned weight.
    """
    if weight.shape[1] != inputs.full.shape[0]:
        raise ShapeError(
            f"weight k={weight.shape[1]} != input k={inputs.full.shape[0]}")
    compact = weight.to_dense() @ inputs.gather()
    if compressed_output:
        return compact
    out = np.zeros((weight.shape[0], inputs.full.shape[1]),
                   dtype=compact.dtype)
    out[:, inputs.sel] = compact
    return out


def samoyeds_ssmm_tiled(weight: SamoyedsWeight, inputs: ColumnSelection,
                        kb: int | None = None) -> np.ndarray:
    """Algorithm-1-shaped execution over the encoded operands.

    Walks ``(block-row, V-stripe)`` tiles: decodes each stored sub-row
    from *data* + *metadata* (the 2:4 step), multiplies against the
    SEL-selected B rows of that stripe, and scatters the partial product
    into the output row named by *indices* — the exact bookkeeping the
    C_IR shuffle performs in registers on hardware.
    """
    p = weight.pattern
    m, k = weight.shape
    kb = kb or p.v
    if p.v % kb:
        raise ShapeError(f"kb={kb} must divide V={p.v}")

    b_sel = inputs.gather().astype(np.float64)        # reads via SEL
    mb_count = m // p.m
    stripes = k // p.v

    decoder = TwoFourMatrix(data=weight.data, metadata=weight.metadata,
                            shape=(mb_count * p.n, k))
    stored = decoder.to_dense().astype(np.float64)    # (mb*N, k)

    out = np.zeros((m, inputs.len_d), dtype=np.float64)
    for block_row in range(mb_count):
        rows = stored[block_row * p.n:(block_row + 1) * p.n]
        for stripe in range(stripes):
            dest = weight.indices[block_row, stripe].astype(np.int64)
            for sub in range(p.v // kb):             # k-loop inside stripe
                k0 = stripe * p.v + sub * kb
                partial = rows[:, k0:k0 + kb] @ b_sel[k0:k0 + kb]
                # C_IR -> C shuffle: route the N partials to their rows.
                out[block_row * p.m + dest] += partial
    return out.astype(np.result_type(weight.data, inputs.full))


# ----------------------------------------------------------------------
# Performance model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SamoyedsFeatures:
    """Feature flags for the §4.2-4.5 optimisations (ablation knobs)."""

    input_selection: bool = True      # dual-side sparsity (SEL reads)
    data_stationary: bool = True      # C_IR register shuffle (§4.3)
    packing: PackingPlan = PackingPlan()
    layout: LayoutPlan = LayoutPlan()

    def without(self, feature: str) -> "SamoyedsFeatures":
        """Copy with one named optimisation disabled."""
        if feature == "stationary":
            return replace(self, data_stationary=False)
        if feature == "packing":
            return replace(self, packing=PackingPlan(
                a_swizzled=False, b_transposed=False,
                metadata_packed=False))
        if feature == "layout":
            # The §4.5 runtime transposes come back; the offline weight
            # transpose and the compressed output belong to the format
            # itself and stay on (Figure 17's T step is about runtime
            # transposition overhead).
            return replace(self, layout=LayoutPlan(
                offline_weight_transpose=True,
                fused_input_transpose=False,
                fused_output_transpose=False,
                compressed_output=True))
        if feature == "input_selection":
            return replace(self, input_selection=False)
        raise ValueError(f"unknown feature {feature!r}")


class SamoyedsKernel(MatmulKernel):
    """Cost model of the Samoyeds SSMM kernel."""

    name = "samoyeds"
    #: Purpose-built kernel: ~88% of the modelled sparse roofline on the
    #: native platform (RTX 4070 Super).
    EFFICIENCY = 0.88
    PIPELINE_STAGES = 3
    SPARSITY_FORMAT = "samoyeds"

    def __init__(self,
                 pattern: SamoyedsPattern = SamoyedsPattern(1, 2, 32),
                 features: SamoyedsFeatures | None = None) -> None:
        self.pattern = pattern
        self.features = features or SamoyedsFeatures()

    @property
    def A_DENSITY(self) -> float:  # type: ignore[override]
        return self.pattern.density

    @property
    def subrow_density(self) -> float:
        """Fraction of sub-rows stored (N / M)."""
        return self.pattern.n / self.pattern.m

    def mma_shape(self) -> MmaShape:
        # Short sub-rows (V < 32) cannot host an m16n8k32 k-slice; the
        # kernel falls back to the narrower m16n8k16 sparse shape.
        from repro.hw.tensorcore import MMA_SP_SHAPES
        if self.pattern.v % SAMOYEDS_MMA.k == 0:
            return SAMOYEDS_MMA
        return MMA_SP_SHAPES[1]

    def porting_factor(self, native, spec) -> float:
        """Graceful §6.6 degradation: Samoyeds' sparse memory paradigm
        dampens (but does not remove) the tuning mismatch when ported."""
        if native.name == spec.name:
            return 1.0
        native_balance = native.dram_bandwidth / native.dense_tc_flops
        target_balance = spec.dram_bandwidth / spec.dense_tc_flops
        imbalance = max(0.0, target_balance / native_balance - 1.0)
        factor = max(0.75, 1.0 - 0.15 * imbalance)
        if spec.architecture != native.architecture:
            factor *= 0.95
        return factor

    def default_config(self, problem: GemmProblem,
                       spec: GPUSpec) -> TilingConfig:
        require_sparse_alu(spec)
        cfg = heuristic_config(problem.m, problem.n, problem.k, spec,
                               self.mma_shape(), subrow_v=self.pattern.v)
        return cfg.scaled(stages=self.PIPELINE_STAGES
                          if spec.has_async_copy else 1)

    # ------------------------------------------------------------------
    # Per-iteration demands
    # ------------------------------------------------------------------
    def compute_cycles_per_iter(self, cfg: TilingConfig,
                                spec: GPUSpec) -> float:
        # Only the stored sub-rows are computed; mma.sp doubles
        # throughput over their 2:4 zeros.
        flops = 2.0 * cfg.mb * cfg.nb * cfg.kb * self.subrow_density
        return flops / (spec.tc_flops_per_sm_cycle * spec.sparse_tc_speedup)

    def a_bytes_per_iter(self, cfg: TilingConfig, spec: GPUSpec) -> float:
        stored_rows = max(1, int(cfg.mb * self.subrow_density))
        values_bytes = dram_bytes(
            AccessPattern(rows=stored_rows, row_bytes=cfg.kb), spec)
        metadata_bytes = metadata_tile_bytes(
            cfg.mb, cfg.kb, self.subrow_density, self.features.packing)
        index_rows = max(1, cfg.mb // self.pattern.m)
        index_cols = max(1, cfg.kb // self.pattern.v) * self.pattern.n
        indices_bytes = dram_bytes(
            AccessPattern(rows=1, row_bytes=index_rows * index_cols,
                          contiguous=True), spec)
        return values_bytes + metadata_bytes + indices_bytes

    def b_bytes_per_iter(self, cfg: TilingConfig, spec: GPUSpec) -> float:
        from repro.kernels.packing import b_tile_dram_bytes
        return b_tile_dram_bytes(cfg.kb, cfg.nb, self.features.packing,
                                 spec)

    def smem_cycles_per_iter(self, cfg: TilingConfig,
                             spec: GPUSpec) -> float:
        from repro.kernels.packing import a_smem_conflict_ways
        ways = a_smem_conflict_ways(self.features.packing)
        a_bytes = (cfg.warps_per_block * cfg.mw * cfg.kb
                   * self.subrow_density * 2)
        b_bytes = cfg.warps_per_block * cfg.kb * cfg.nw * 2
        cycles = (smem_load_cycles(int(a_bytes), conflict_ways=ways,
                                   spec=spec)
                  + smem_load_cycles(int(b_bytes), conflict_ways=1,
                                     spec=spec))
        if self.features.data_stationary:
            shuffle = stationary_register_cost(
                cfg.mb, cfg.nb, self.pattern.v, cfg.kb,
                warps=cfg.warps_per_block,
                moved_fraction=self.subrow_density)
            cycles += shuffle.extra_smem_cycles
        else:
            spill = local_memory_spill_cost(cfg.mb, cfg.nb,
                                            self.pattern.v, cfg.kb)
            cycles += spill.extra_smem_cycles
        return cycles

    def prologue_bytes(self, problem: GemmProblem) -> float:
        # The SEL array is loaded to shared memory once (Algorithm 1 l.5).
        return problem.n * 4.0 if self.features.input_selection else 0.0

    def epilogue_bytes(self, cfg: TilingConfig) -> float:
        if self.features.layout.compressed_output:
            return cfg.mb * cfg.nb * 2.0
        # Dense layout writes the zero rows too; the expansion factor is
        # applied at cost() where n_full is known.
        return cfg.mb * cfg.nb * 2.0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def cost(self, m: int, k: int, n: int, spec: GPUSpec,
             cfg: TilingConfig | None = None,
             n_full: int | None = None):
        """Simulated cost; ``n`` is ``len_d`` (selected tokens).

        ``n_full`` (total token columns) prices only the dense-output
        penalty when the compressed layout is disabled; the SEL
        prologue reads the padded ``n`` (:meth:`prologue_bytes`).
        """
        require_sparse_alu(spec)
        result = super().cost(m, k, n, spec, cfg)
        extra_s = extra_layout_passes_seconds(
            m, k, n, self.features.layout, spec)
        if n_full is not None and not self.features.layout.compressed_output:
            wasted_cols = max(0, n_full - n)
            waste_traffic = 2.0 * m * wasted_cols * 2  # write + re-read
            extra_s += waste_traffic / spec.dram_bandwidth
        if extra_s <= 0.0:
            return result
        return type(result)(**{**result.__dict__,
                               "time_s": result.time_s + extra_s})


SAMOYEDS_KERNEL = SamoyedsKernel()
