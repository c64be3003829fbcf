"""Expert-segment scheduling across GPU streams.

The Samoyeds engine executes one SSMM segment per expert.  On real
hardware those segments can overlap on separate streams until SMs are
saturated; with skewed routing the slowest expert dominates.  This
module models three policies and exposes the makespan arithmetic the
engine-level numbers summarise:

* ``sequential`` — one stream, segments back to back (the measurement
  configuration of the paper);
* ``parallel``   — greedy longest-processing-time placement onto ``s``
  streams (classic makespan scheduling);
* ``fused``      — one grid over all experts (the vLLM-style layout),
  for comparison.

An extension beyond the paper's evaluation, flagged as such in
DESIGN.md; it exercises the cost model against routing traces from
:mod:`repro.moe.trace`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import ConfigError
from repro.hw.interconnect import ACT_BYTES, ClusterSpec
from repro.hw.spec import GPUSpec
from repro.kernels.ssmm_samoyeds import SamoyedsKernel
from repro.moe.config import MoEModelConfig
from repro.moe.router import RoutingPlan

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.context import ExecutionContext


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one layer's expert segments."""

    policy: str
    streams: int
    makespan_s: float
    segment_seconds: tuple[float, ...]

    @property
    def total_work_s(self) -> float:
        return sum(self.segment_seconds)

    @property
    def utilisation(self) -> float:
        """Work / (streams x makespan) — 1.0 means perfectly packed."""
        if self.makespan_s <= 0 or self.streams <= 0:
            return 0.0
        return self.total_work_s / (self.streams * self.makespan_s)


def segment_seconds_from_loads(config: MoEModelConfig,
                               loads: Iterable[int], spec: GPUSpec,
                               kernel: SamoyedsKernel,
                               tile_n: int = 64, tp: int = 1,
                               memo: "dict[int, float] | None" = None
                               ) -> list[float]:
    """Per-expert SSMM-triple time for the given per-expert token loads.

    The gate and up projections share one GEMM shape ``(inter, h, n_e)``
    so their cost is computed once and counted twice.  The load vector
    is bucketed through numpy: loads pad to their ``tile_n`` multiple
    with integer arithmetic (``(load + tile_n - 1) // tile_n * tile_n``
    equals the reference ``ceil`` for every integer load), the *unique*
    padded shapes are priced once each through the kernel model, and
    the per-expert vector is filled by bucket — a serving step prices a
    64-expert layer with a handful of kernel-model evaluations instead
    of one per expert.

    ``memo`` optionally persists the per-``n_e`` triple seconds across
    calls (the serving pricer reuses one dict per run).  It must be
    private to a fixed (config, spec, kernel, tile_n, tp) combination —
    entries are keyed by the padded shape alone.

    ``tp > 1`` prices a tensor-sharded segment: the expert inner
    dimension splits across the tensor-parallel group (the all-reduce
    that stitches shards back together is charged by the caller's
    interconnect model, not here).
    """
    if tile_n <= 0:
        raise ConfigError("tile_n must be positive")
    if tp <= 0:
        raise ConfigError("tp must be positive")
    h, inter = config.hidden_size, config.intermediate_size
    if tp > 1:
        inter = max(1, math.ceil(inter / tp))
    arr = np.asarray(loads if isinstance(loads, np.ndarray)
                     else list(loads), dtype=np.int64)
    if arr.size == 0:
        return []
    if memo is None:
        memo = {}
    padded = (arr + tile_n - 1) // tile_n * tile_n
    out = np.zeros(arr.size, dtype=np.float64)
    active = arr != 0
    for n_e in np.unique(padded[active]):
        n_int = int(n_e)
        triple = memo.get(n_int)
        if triple is None:
            gate_up_s = kernel.cost(inter, h, n_int, spec).time_s
            down_s = kernel.cost(h, inter, n_int, spec).time_s
            triple = memo[n_int] = 2.0 * gate_up_s + down_s
        out[active & (padded == n_e)] = triple
    return out.tolist()


def expert_segment_seconds(ctx: "ExecutionContext",
                           plan: RoutingPlan) -> list[float]:
    """Per-expert SSMM-triple time under the actual routed loads.

    The context supplies the model, device, segment kernel and tile size.
    """
    return segment_seconds_from_loads(ctx.config, plan.load(), ctx.spec,
                                      ctx.segment_kernel(),
                                      ctx.effective_tile_n)


def schedule_sequential(segments: list[float]) -> ScheduleResult:
    """All segments on one stream."""
    return ScheduleResult(policy="sequential", streams=1,
                          makespan_s=sum(segments),
                          segment_seconds=tuple(segments))


def schedule_parallel(segments: list[float],
                      streams: int) -> ScheduleResult:
    """Greedy LPT placement onto ``streams`` streams.

    LPT is a 4/3-approximation of optimal makespan — good enough to
    show the skew sensitivity the scheduler exists to expose.
    """
    if streams <= 0:
        raise ConfigError("streams must be positive")
    loads = [0.0] * streams
    heap = [(0.0, i) for i in range(streams)]
    heapq.heapify(heap)
    for seg in sorted(segments, reverse=True):
        load, idx = heapq.heappop(heap)
        loads[idx] = load + seg
        heapq.heappush(heap, (loads[idx], idx))
    return ScheduleResult(policy="parallel", streams=streams,
                          makespan_s=max(loads) if loads else 0.0,
                          segment_seconds=tuple(segments))


def schedule_fused(config: MoEModelConfig, plan: RoutingPlan,
                   spec: GPUSpec, kernel: SamoyedsKernel,
                   tile_n: int = 64) -> ScheduleResult:
    """One grouped grid over all experts (padding included)."""
    h, inter = config.hidden_size, config.intermediate_size
    padded_total = int(sum(math.ceil(int(load) / tile_n) * tile_n
                           for load in plan.load() if load))
    padded_total = max(padded_total, tile_n)
    # Gate and up share one GEMM shape: price it once, count it twice.
    gate_up_s = kernel.cost(inter, h, padded_total, spec).time_s
    total_s = (2.0 * gate_up_s
               + kernel.cost(h, inter, padded_total, spec).time_s)
    return ScheduleResult(policy="fused", streams=1, makespan_s=total_s,
                          segment_seconds=(total_s,))


def compare_policies(ctx: "ExecutionContext",
                     plan: RoutingPlan) -> dict[str, ScheduleResult]:
    """All three policies on one routed workload.

    The context supplies the model, device, segment kernel, stream count
    and tile size.
    """
    config, spec = ctx.config, ctx.spec
    kernel, tile_n = ctx.segment_kernel(), ctx.effective_tile_n
    segments_s = segment_seconds_from_loads(config, plan.load(), spec,
                                            kernel, tile_n)
    return {
        "sequential": schedule_sequential(segments_s),
        "parallel": schedule_parallel(segments_s, ctx.streams),
        "fused": schedule_fused(config, plan, spec, kernel, tile_n),
    }


# ----------------------------------------------------------------------
# Expert-parallel placement and scheduling (cluster-scale extension)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExpertPlacement:
    """Static expert-to-device assignment for one expert-parallel group.

    Attributes:
        ep: Expert-parallel degree (devices in the group).
        device_of: Per expert, the owning device index.
        policy: Placement policy name (``round_robin`` / ``balanced``).
    """

    ep: int
    device_of: tuple[int, ...]
    policy: str = "round_robin"

    def __post_init__(self) -> None:
        if self.ep <= 0:
            raise ConfigError("ep must be positive")
        for device in self.device_of:
            if not 0 <= device < self.ep:
                raise ConfigError(
                    f"device {device} outside expert-parallel group of "
                    f"{self.ep}")

    @property
    def num_experts(self) -> int:
        return len(self.device_of)

    def experts_on(self, device: int) -> tuple[int, ...]:
        """Expert indices owned by ``device``."""
        return tuple(e for e, d in enumerate(self.device_of)
                     if d == device)

    def counts(self) -> tuple[int, ...]:
        """Experts per device (the weight-footprint profile)."""
        out = [0] * self.ep
        for device in self.device_of:
            out[device] += 1
        return tuple(out)

    @property
    def max_device_experts(self) -> int:
        """Expert count on the most loaded device (weight bottleneck)."""
        return max(self.counts())


def place_experts(num_experts: int, ep: int,
                  policy: str = "round_robin",
                  profile: "Iterable[float] | None" = None
                  ) -> ExpertPlacement:
    """Assign ``num_experts`` experts to ``ep`` devices.

    * ``round_robin`` — expert ``e`` lands on device ``e % ep``
      (placement used when no routing profile is known);
    * ``balanced``   — skew-aware LPT over ``profile`` (expected token
      share per expert, e.g. the measured routing histogram): heaviest
      expert first onto the least-loaded device, ties broken toward the
      device holding fewer experts so weight footprints stay level.
    """
    if num_experts <= 0:
        raise ConfigError("num_experts must be positive")
    if ep <= 0:
        raise ConfigError("ep must be positive")
    if ep > num_experts:
        raise ConfigError(
            f"expert-parallel degree {ep} exceeds {num_experts} experts")
    if policy == "round_robin":
        return ExpertPlacement(
            ep=ep, device_of=tuple(e % ep for e in range(num_experts)),
            policy=policy)
    if policy != "balanced":
        raise ConfigError(
            f"unknown placement policy {policy!r}; known: round_robin, "
            f"balanced")
    loads = ([1.0] * num_experts if profile is None
             else [float(x) for x in profile])
    if len(loads) != num_experts:
        raise ConfigError(
            f"profile has {len(loads)} entries for {num_experts} experts")
    if any(x < 0 for x in loads):
        raise ConfigError("profile entries must be non-negative")
    device_of = [0] * num_experts
    heap = [(0.0, 0, d) for d in range(ep)]   # (load, count, device)
    heapq.heapify(heap)
    order = sorted(range(num_experts), key=lambda e: -loads[e])
    for expert in order:
        load, count, device = heapq.heappop(heap)
        device_of[expert] = device
        heapq.heappush(heap, (load + loads[expert], count + 1, device))
    return ExpertPlacement(ep=ep, device_of=tuple(device_of),
                           policy=policy)


@dataclass(frozen=True)
class ExpertParallelResult:
    """One layer's MoE step priced over an expert-parallel group.

    The step is the slowest device's segment makespan plus the
    dispatch and combine all-to-alls that move routed activations to
    their experts and back.
    """

    placement: ExpertPlacement
    streams: int
    per_device_s: tuple[float, ...]
    alltoall_s: float

    @property
    def compute_s(self) -> float:
        """Slowest device's expert-segment makespan."""
        return max(self.per_device_s) if self.per_device_s else 0.0

    @property
    def makespan_s(self) -> float:
        return self.compute_s + self.alltoall_s

    @property
    def comm_fraction(self) -> float:
        total_s = self.makespan_s
        return self.alltoall_s / total_s if total_s > 0 else 0.0

    @property
    def device_imbalance(self) -> float:
        """max/mean device busy time (1.0 = perfectly balanced)."""
        if not self.per_device_s:
            return 1.0
        mean = sum(self.per_device_s) / len(self.per_device_s)
        return self.compute_s / mean if mean > 0 else 1.0


def device_makespans(segments: "Iterable[float]",
                     placement: ExpertPlacement,
                     streams: int = 1) -> list[float]:
    """Per-device LPT makespan of each device's own expert segments."""
    segs = list(segments)
    if len(segs) != placement.num_experts:
        raise ConfigError(
            f"{len(segs)} segments for {placement.num_experts} experts")
    out = []
    for device in range(placement.ep):
        mine = [segs[e] for e in placement.experts_on(device)]
        out.append(schedule_parallel(mine, streams).makespan_s
                   if mine else 0.0)
    return out


def dispatch_combine_seconds(config: MoEModelConfig, routed_tokens: int,
                             cluster: ClusterSpec, ep: int) -> float:
    """Dispatch + combine all-to-all for ``routed_tokens`` activations.

    Each expert-parallel device holds ``routed/ep`` token activations
    and exchanges the ``(ep-1)/ep`` remote share both ways (token to
    expert, expert output back to token).
    """
    if ep <= 1 or routed_tokens <= 0:
        return 0.0
    per_device = (routed_tokens / ep) * config.hidden_size * ACT_BYTES
    return 2.0 * cluster.alltoall_seconds(per_device, ep)


def schedule_expert_parallel(ctx: "ExecutionContext", plan: RoutingPlan,
                             policy: str = "balanced",
                             placement: ExpertPlacement | None = None
                             ) -> ExpertParallelResult:
    """Price one MoE layer step over an expert-parallel device group.

    The context supplies the model, device, segment kernel, stream
    count, tile size and the parallel plan and topology.  The routing
    ``plan`` doubles as the placement profile when
    ``policy='balanced'``.
    """
    config, ep, tp = ctx.config, ctx.parallel.ep, ctx.parallel.tp
    loads = plan.load()
    if placement is None:
        placement = place_experts(config.num_experts, ep, policy=policy,
                                  profile=[float(x) for x in loads])
    elif placement.ep != ep or placement.num_experts != config.num_experts:
        raise ConfigError("placement does not match ep/num_experts")
    segments_s = segment_seconds_from_loads(config, loads, ctx.spec,
                                            ctx.segment_kernel(),
                                            ctx.effective_tile_n, tp=tp)
    per_device = device_makespans(segments_s, placement, ctx.streams)
    comm_s = dispatch_combine_seconds(config, int(sum(loads)),
                                      ctx.cluster_spec, ep)
    return ExpertParallelResult(placement=placement, streams=ctx.streams,
                                per_device_s=tuple(per_device),
                                alltoall_s=comm_s)
