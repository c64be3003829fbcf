"""Kernel-launch performance simulator.

A :class:`KernelLaunch` is the contract between kernels and hardware: the
kernel describes its grid, per-block resource footprint and per-iteration
compute/memory demands; :func:`simulate_kernel` folds in occupancy, L2
reuse, DRAM bandwidth sharing, warp-level latency hiding, pipeline overlap
and wave quantization to produce a :class:`CostBreakdown`.

The model is analytical (no cycle-accurate event loop) but derives every
term from the same quantities a real profile would show — FLOPs issued,
sectors moved, warps resident — so relative comparisons between kernels
track the paper's measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.hw.cache import (
    l1_thrash_factor,
    l2_hit_fraction,
    l2_reuse_count,
    wave_working_set,
)
from repro.hw.occupancy import BlockResources, compute_occupancy
from repro.hw.pipeline import DEFAULT_PIPELINE_STAGES, PipelineModel
from repro.hw.spec import GPUSpec
from repro.utils.validation import check_positive

#: Resident warps per SM needed to fully hide tensor-core/memory latency.
#: Tensor-core pipelines expose high ILP per warp, so a handful of warps
#: per SM suffices; only very small launches pay an issue-efficiency tax.
WARPS_FOR_PEAK = 4


@dataclass(frozen=True)
class KernelLaunch:
    """Everything the simulator needs to know about one kernel launch.

    Attributes:
        name: Label for reports.
        grid_blocks: Thread blocks in the grid.
        grid_n: Blocks along the output-column dimension (L2 geometry).
        block: Per-block resource footprint.
        iters_per_block: k-loop trip count per block.
        compute_cycles_per_iter: SM cycles of MMA/SIMT issue per iteration
            of one block (tensor-core issue bandwidth already applied).
        smem_cycles_per_iter: Shared->register cycles per iteration of one
            block, including bank-conflict serialisation.  These dual-issue
            with MMA work: the slower of the two pipes bounds the stage.
        dram_bytes_per_iter: Global->shared bytes per iteration of one
            block (transaction-rounded; before L2 filtering).
        a_stripe_bytes: Operand-A bytes an output-row stripe keeps live in
            L2 per k-slice (blocks progress in near-lockstep, so only a
            few slices are resident at once).
        b_stripe_bytes: Same for the B operand per output-column stripe.
        epilogue_bytes: Output bytes written back per block.
        prologue_bytes: One-time loads before the loop (e.g. the SEL array).
        pipeline_stages: Software-pipeline depth (Algorithm 1).
        efficiency: Implementation quality in (0, 1]: fraction of the
            modelled compute rate the real kernel sustains.  A documented
            per-kernel calibration constant, not a per-experiment knob.
    """

    name: str
    grid_blocks: int
    grid_n: int
    block: BlockResources
    iters_per_block: int
    compute_cycles_per_iter: float
    smem_cycles_per_iter: float
    dram_bytes_per_iter: float
    a_stripe_bytes: float = 0.0
    b_stripe_bytes: float = 0.0
    epilogue_bytes: float = 0.0
    prologue_bytes: float = 0.0
    pipeline_stages: int = DEFAULT_PIPELINE_STAGES
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.grid_blocks, "grid_blocks")
        check_positive(self.iters_per_block, "iters_per_block")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(
                f"efficiency must be in (0, 1], got {self.efficiency}")


@dataclass(frozen=True)
class CostBreakdown:
    """Simulated cost of one kernel launch (or an aggregate of launches)."""

    name: str
    time_s: float
    flops: float
    useful_bytes: float
    dram_bytes: float
    compute_time_s: float
    memory_time_s: float
    epilogue_time_s: float
    launch_overhead_s: float
    waves: int
    occupancy: float
    l2_hit_fraction: float
    limiter: str
    detail: dict[str, float] = field(default_factory=dict)

    @property
    def tflops(self) -> float:
        """Effective throughput in TFLOP/s (zeros counted, like the paper)."""
        return self.flops / self.time_s / 1e12 if self.time_s > 0 else 0.0

    def speedup_over(self, other: "CostBreakdown") -> float:
        """``other.time / self.time`` — how much faster ``self`` is."""
        if self.time_s <= 0:
            return math.inf
        return other.time_s / self.time_s


def simulate_kernel(launch: KernelLaunch, spec: GPUSpec,
                    flops: float = 0.0,
                    useful_bytes: float = 0.0) -> CostBreakdown:
    """Turn a :class:`KernelLaunch` description into time.

    Args:
        launch: The launch descriptor produced by a kernel's cost model.
        spec: Target device.
        flops: Effective FLOPs of the whole launch (for throughput reports).
        useful_bytes: Algorithmically required bytes (for I/O-amplification
            reports); defaults to the modelled DRAM traffic.
    """
    occ = compute_occupancy(launch.block, spec)
    clock_hz = spec.clock_ghz * 1e9

    # --- how many blocks actually run concurrently -----------------------
    blocks_per_sm = min(occ.blocks_per_sm,
                        max(1, math.ceil(launch.grid_blocks / spec.sm_count)))
    concurrent_blocks = min(launch.grid_blocks, spec.sm_count * blocks_per_sm)
    waves = math.ceil(launch.grid_blocks / (spec.sm_count * blocks_per_sm))
    resident_warps = blocks_per_sm * launch.block.warps

    # --- latency hiding ---------------------------------------------------
    issue_eff = min(1.0, resident_warps / WARPS_FOR_PEAK)
    issue_eff = max(issue_eff, 1.0 / WARPS_FOR_PEAK)

    # --- L2 reuse between concurrent blocks ------------------------------
    working_set = wave_working_set(launch.a_stripe_bytes,
                                   launch.b_stripe_bytes,
                                   concurrent_blocks, max(launch.grid_n, 1))
    reuse = l2_reuse_count(concurrent_blocks, max(launch.grid_n, 1))
    cache = l2_hit_fraction(int(working_set), spec.l2_bytes, reuse)

    # --- per-iteration stage times (for one block) ------------------------
    # ldmatrix/lds traffic issues on the LSU pipe while mma occupies the
    # tensor-core pipe; the compute stage is bounded by the slower pipe.
    thrash = l1_thrash_factor(resident_warps)
    compute_cycles = max(launch.compute_cycles_per_iter,
                         launch.smem_cycles_per_iter * thrash)
    compute_per_iter = (compute_cycles * blocks_per_sm
                        / clock_hz / issue_eff / launch.efficiency)

    eff_bytes_per_iter = launch.dram_bytes_per_iter * (1.0 - cache.hit_fraction)
    fetch_per_iter = (eff_bytes_per_iter * concurrent_blocks
                      / spec.dram_bandwidth)

    pipe = PipelineModel(launch.pipeline_stages)
    block_loop = pipe.loop_time(launch.iters_per_block, fetch_per_iter,
                                compute_per_iter, spec)

    # --- epilogue / prologue ----------------------------------------------
    epilogue = (launch.epilogue_bytes * concurrent_blocks
                / spec.dram_bandwidth)
    prologue = launch.prologue_bytes / spec.dram_bandwidth

    time_s = (waves * (block_loop + epilogue)
              + prologue + spec.kernel_launch_overhead_s)

    total_dram = (launch.dram_bytes_per_iter * launch.iters_per_block
                  * launch.grid_blocks * (1.0 - cache.hit_fraction)
                  + launch.epilogue_bytes * launch.grid_blocks
                  + launch.prologue_bytes)
    compute_time = (launch.compute_cycles_per_iter * launch.iters_per_block
                    * launch.grid_blocks
                    / (spec.sm_count * clock_hz * launch.efficiency))
    memory_time = total_dram / spec.dram_bandwidth

    return CostBreakdown(
        name=launch.name,
        time_s=time_s,
        flops=flops,
        useful_bytes=useful_bytes if useful_bytes else total_dram,
        dram_bytes=total_dram,
        compute_time_s=compute_time,
        memory_time_s=memory_time,
        epilogue_time_s=waves * epilogue,
        launch_overhead_s=spec.kernel_launch_overhead_s,
        waves=waves,
        occupancy=occ.occupancy,
        l2_hit_fraction=cache.hit_fraction,
        limiter=occ.limiter,
        detail={
            "blocks_per_sm": float(blocks_per_sm),
            "concurrent_blocks": float(concurrent_blocks),
            "resident_warps": float(resident_warps),
            "issue_efficiency": issue_eff,
            "l1_thrash": thrash,
            "fetch_per_iter_s": fetch_per_iter,
            "compute_per_iter_s": compute_per_iter,
            "block_loop_s": block_loop,
        },
    )


def combine(name: str, parts: list[CostBreakdown]) -> CostBreakdown:
    """Aggregate sequentially executed launches into one breakdown."""
    if not parts:
        raise ValueError("combine() needs at least one CostBreakdown")
    return CostBreakdown(
        name=name,
        time_s=sum(p.time_s for p in parts),
        flops=sum(p.flops for p in parts),
        useful_bytes=sum(p.useful_bytes for p in parts),
        dram_bytes=sum(p.dram_bytes for p in parts),
        compute_time_s=sum(p.compute_time_s for p in parts),
        memory_time_s=sum(p.memory_time_s for p in parts),
        epilogue_time_s=sum(p.epilogue_time_s for p in parts),
        launch_overhead_s=sum(p.launch_overhead_s for p in parts),
        waves=sum(p.waves for p in parts),
        occupancy=min(p.occupancy for p in parts),
        l2_hit_fraction=sum(p.l2_hit_fraction * p.dram_bytes for p in parts)
        / max(sum(p.dram_bytes for p in parts), 1.0),
        limiter="combined",
        detail={"launches": float(len(parts))},
    )
