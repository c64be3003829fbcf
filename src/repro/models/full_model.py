"""Whole-model extrapolation from the per-layer substrate.

The paper measures one decoder layer (justified in §6.3: decoder layers
are >90% of runtime and mutually similar).  This module provides the
inverse direction for users sizing deployments: extrapolate a full
model's parameters, memory, latency and serving throughput from the
per-layer models, across devices and engines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapacityError
from repro.hw.interconnect import ClusterSpec, ParallelPlan, make_cluster
from repro.hw.spec import GPUSpec
from repro.models.decoder import decoder_cost
from repro.moe.config import MoEModelConfig
from repro.moe.memory_model import (
    FRAGMENTATION,
    fixed_overhead_bytes,
    kv_cache_bytes,
    moe_workspace_bytes,
    weight_bytes,
)
from repro.utils.units import GIB


@dataclass(frozen=True)
class ModelEstimate:
    """Full-model numbers for one (model, engine, device, workload)."""

    model: str
    engine: str
    device: str
    batch: int
    seq_len: int
    total_params: int
    weights_bytes: float
    kv_bytes: float
    latency_s: float
    tokens_per_s: float
    fits: bool

def total_params(config: MoEModelConfig) -> int:
    """All-layer parameter count (attention + experts + embeddings)."""
    per_layer = config.attention_param_count + config.moe_param_count
    embeddings = 2 * 32000 * config.hidden_size       # in/out embeddings
    return per_layer * config.num_layers + embeddings


def full_model_estimate(config: MoEModelConfig, engine: str,
                        spec: GPUSpec, batch: int = 1,
                        seq_len: int | None = None,
                        flash: bool = True) -> ModelEstimate:
    """Extrapolate one decoder layer to the whole model.

    Latency scales by ``num_layers``; weights and KV cache scale the
    same way; the workspace is reused across layers so it counts once.
    """
    seq = min(seq_len or config.max_seq_len, config.max_seq_len)
    layer = decoder_cost(config, seq, spec, engine=engine, batch=batch,
                         flash=flash)
    latency = layer.total_s * config.num_layers

    weights = weight_bytes(config, engine) * config.num_layers
    kv = kv_cache_bytes(config, seq) * batch * config.num_layers
    workspace = moe_workspace_bytes(config, seq, engine) * batch
    need = (weights + kv + workspace + fixed_overhead_bytes(config, engine))
    fits = need <= spec.dram_capacity * (1.0 - FRAGMENTATION)

    return ModelEstimate(
        model=config.name,
        engine=engine,
        device=spec.name,
        batch=batch,
        seq_len=seq,
        total_params=total_params(config),
        weights_bytes=weights,
        kv_bytes=kv,
        latency_s=latency,
        tokens_per_s=batch * seq / latency,
        fits=fits,
    )


def require_fits(estimate: ModelEstimate, spec: GPUSpec) -> None:
    """Raise :class:`CapacityError` when the estimate does not fit."""
    if not estimate.fits:
        raise CapacityError(
            f"{estimate.model} with {estimate.engine} does not fit on "
            f"{spec.name} at batch {estimate.batch}",
            required_bytes=int(estimate.weights_bytes + estimate.kv_bytes),
            available_bytes=int(spec.dram_capacity))


@dataclass(frozen=True)
class ClusterEstimate:
    """Full-model numbers for one parallel plan on one cluster.

    All byte quantities are *per device*; ``fits`` checks the
    bottleneck device's budget.  ``comm_s`` is the per-forward
    interconnect time (TP boundary all-reduces plus EP dispatch and
    combine all-to-alls, summed over layers).
    """

    model: str
    engine: str
    cluster: str
    parallel: ParallelPlan
    batch: int
    seq_len: int
    weights_bytes_per_device: float
    kv_bytes_per_device: float
    latency_s: float
    comm_s: float
    tokens_per_s: float
    fits: bool

    @property
    def num_devices(self) -> int:
        return self.parallel.num_devices

    @property
    def comm_fraction(self) -> float:
        return self.comm_s / self.latency_s if self.latency_s > 0 else 0.0

    @property
    def weights_gib_per_device(self) -> float:
        return self.weights_bytes_per_device / GIB


def cluster_model_estimate(config: MoEModelConfig, engine: str,
                           parallel: ParallelPlan,
                           spec: GPUSpec | None = None,
                           cluster: ClusterSpec | None = None,
                           batch: int = 1, seq_len: int | None = None,
                           flash: bool = True) -> ClusterEstimate:
    """Whole-model extrapolation of one shard of a parallel deployment.

    The per-layer breakdown composes TP shards with all-reduces at the
    attention/MLP boundaries and EP expert partitions with dispatch /
    combine all-to-alls (:func:`repro.models.decoder.decoder_cost`'s
    parallel path), then scales by ``num_layers`` exactly as the
    single-device estimate does.  Data-parallel replicas multiply
    aggregate throughput without changing per-device latency.
    """
    if cluster is None:
        if spec is None:
            raise CapacityError("cluster_model_estimate needs a spec or "
                                "a cluster")
        cluster = make_cluster(spec, parallel)
    device = cluster.device(0)
    seq = min(seq_len or config.max_seq_len, config.max_seq_len)
    layer = decoder_cost(config, seq, device, engine=engine, batch=batch,
                         flash=flash, parallel=parallel, cluster=cluster)
    latency = layer.total_s * config.num_layers
    comm = layer.comm_s * config.num_layers

    weights = (weight_bytes(config, engine, parallel)
               * config.num_layers)
    kv = (kv_cache_bytes(config, seq) * batch * config.num_layers
          / parallel.tp)
    workspace = (moe_workspace_bytes(config, seq, engine) * batch
                 / (parallel.ep * parallel.tp))
    need = weights + kv + workspace + fixed_overhead_bytes(config, engine)
    budget = min(g.dram_capacity for g in cluster.gpus) \
        * (1.0 - FRAGMENTATION)
    return ClusterEstimate(
        model=config.name,
        engine=engine,
        cluster=cluster.describe(),
        parallel=parallel,
        batch=batch,
        seq_len=seq,
        weights_bytes_per_device=weights,
        kv_bytes_per_device=kv,
        latency_s=latency,
        comm_s=comm,
        tokens_per_s=batch * seq / latency * parallel.dp,
        fits=need <= budget,
    )


def min_devices_for_model(config: MoEModelConfig, engine: str,
                          spec: GPUSpec, batch: int = 1,
                          seq_len: int | None = None) -> int:
    """Naive tensor-parallel width: how many cards until weights fit.

    Splits weights and KV evenly; workspace replicates.  A lower bound a
    deployment planner would refine, but sufficient to show the paper's
    memory story at model scale (Samoyeds' 3.5x weight compression cuts
    the card count).
    """
    seq = min(seq_len or config.max_seq_len, config.max_seq_len)
    weights = weight_bytes(config, engine) * config.num_layers
    kv = kv_cache_bytes(config, seq) * batch * config.num_layers
    workspace = moe_workspace_bytes(config, seq, engine) * batch
    budget = spec.dram_capacity * (1.0 - FRAGMENTATION) \
        - fixed_overhead_bytes(config, engine)
    for devices in range(1, 129):
        if (weights + kv) / devices + workspace <= budget:
            return devices
    raise CapacityError(f"{config.name} needs more than 128 {spec.name}s")
