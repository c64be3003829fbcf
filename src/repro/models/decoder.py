"""Decoder-layer composition: attention + MoE + normalisation.

Produces the Figure 2 time breakdown and the building block for the
end-to-end runner (§6.3 measures one decoder layer; decoder layers are
>90% of total model time and mutually similar, per the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.interconnect import (
    ACT_BYTES,
    ClusterSpec,
    ParallelPlan,
    make_cluster,
)
from repro.hw.spec import GPUSpec
from repro.models.attention import attention_cost, decode_attention_cost
from repro.moe.config import MoEModelConfig
from repro.moe.layers import ENGINES, MoEEngine


@dataclass(frozen=True)
class DecoderBreakdown:
    """Per-component seconds for one decoder layer forward.

    ``comm_s`` is the interconnect time of a tensor/expert-parallel
    shard (all-reduces at the attention and MLP output boundaries plus
    the MoE dispatch/combine all-to-all); it is 0 on a single device.
    """

    model: str
    engine: str
    attention_s: float
    moe_s: float
    norm_s: float
    flash: bool
    phase: str = "prefill"
    comm_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.attention_s + self.moe_s + self.norm_s + self.comm_s

    @property
    def moe_fraction(self) -> float:
        """Figure 2's y-axis: MoE share of the decoder layer."""
        return self.moe_s / self.total_s if self.total_s > 0 else 0.0

    @property
    def comm_fraction(self) -> float:
        """Interconnect share of the layer (0 on a single device)."""
        return self.comm_s / self.total_s if self.total_s > 0 else 0.0

    def fractions(self) -> dict[str, float]:
        total_s = self.total_s
        if total_s <= 0:
            return {"attention": 0.0, "moe": 0.0, "norm": 0.0}
        out = {
            "attention": self.attention_s / total_s,
            "moe": self.moe_s / total_s,
            "norm": self.norm_s / total_s,
        }
        if self.comm_s > 0:
            out["comm"] = self.comm_s / total_s
        return out


def norm_seconds(config: MoEModelConfig, tokens: int,
                 spec: GPUSpec) -> float:
    """Two RMSNorms: pure elementwise traffic over the hidden states."""
    bytes_per_pass = 2.0 * tokens * config.hidden_size * 2
    return 2.0 * (bytes_per_pass / spec.dram_bandwidth
                  + spec.kernel_launch_overhead_s)


def boundary_comm_seconds(config: MoEModelConfig, tokens: int,
                          parallel: ParallelPlan,
                          cluster: ClusterSpec) -> float:
    """Interconnect seconds of one decoder layer for ``tokens`` new
    tokens under ``parallel``.

    Tensor parallelism stitches shards with two ring all-reduces over
    the hidden states (after the attention output projection and after
    the MoE/MLP down projection — the Megatron boundaries); expert
    parallelism moves each routed token's activation to its expert and
    the expert output back via two all-to-alls over the EP group.
    """
    if parallel.is_trivial or tokens <= 0:
        return 0.0
    from repro.moe.scheduler import dispatch_combine_seconds
    hidden_bytes = float(tokens) * config.hidden_size * ACT_BYTES
    comm_s = 2.0 * cluster.allreduce_seconds(hidden_bytes, parallel.tp)
    comm_s += dispatch_combine_seconds(config, tokens * config.top_k,
                                       cluster, parallel.ep)
    return comm_s


def _parallel_terms(config: MoEModelConfig, tokens: int, spec: GPUSpec,
                    parallel: "ParallelPlan | None",
                    cluster: "ClusterSpec | None"
                    ) -> tuple[float, float, float] | None:
    """(attention divisor, moe divisor, comm seconds) for a shard, or
    ``None`` on the single-device path."""
    if parallel is None or parallel.is_trivial:
        return None
    cluster = cluster or make_cluster(spec, parallel)
    comm_s = boundary_comm_seconds(config, tokens, parallel, cluster)
    return float(parallel.tp), float(parallel.ep * parallel.tp), comm_s


def decoder_cost(config: MoEModelConfig, tokens: int, spec: GPUSpec,
                 engine: MoEEngine | str = "transformers",
                 batch: int = 1, flash: bool = True,
                 num_shared: int | None = None,
                 parallel: ParallelPlan | None = None,
                 cluster: ClusterSpec | None = None) -> DecoderBreakdown:
    """Simulated latency breakdown of one decoder layer.

    Args:
        config: Table-2 model.
        tokens: Sequence length per batch element.
        spec: Target device.
        engine: MoE engine instance or registry name.
        batch: Batch size (scales every component linearly except the
            attention core, which is quadratic in sequence, linear in
            batch — handled inside the attention model).
        flash: FlashAttention toggle (Figure 2's two panels).
        num_shared: Override the config's shared-expert count.
        parallel: Optional device-parallel plan; attention shards over
            ``tp``, expert work over ``ep * tp``, and the boundary
            collectives are charged from ``cluster``.
        cluster: Topology pricing the collectives (defaults to a
            homogeneous NVLink cluster of ``spec`` copies).
    """
    if isinstance(engine, str):
        engine = ENGINES[engine]
    attn = attention_cost(config, tokens, spec, batch=batch, flash=flash)
    moe = engine.cost(config, tokens * batch, spec, num_shared=num_shared)
    norm_s = norm_seconds(config, tokens * batch, spec)
    terms = _parallel_terms(config, tokens * batch, spec, parallel,
                            cluster)
    if terms is None:
        return DecoderBreakdown(
            model=config.name,
            engine=engine.name,
            attention_s=attn.total_s,
            moe_s=moe.time_s,
            norm_s=norm_s,
            flash=flash,
            phase="prefill",
        )
    attn_div, moe_div, comm_s = terms
    return DecoderBreakdown(
        model=config.name,
        engine=engine.name,
        attention_s=attn.total_s / attn_div,
        moe_s=moe.time_s / moe_div,
        norm_s=norm_s,
        flash=flash,
        phase="prefill",
        comm_s=comm_s,
    )


def decoder_decode_cost(config: MoEModelConfig, context_tokens: int,
                        spec: GPUSpec,
                        engine: MoEEngine | str = "transformers",
                        batch: int = 1, flash: bool = True,
                        num_shared: int | None = None,
                        parallel: ParallelPlan | None = None,
                        cluster: ClusterSpec | None = None
                        ) -> DecoderBreakdown:
    """Decode-phase decoder layer: one new token per sequence.

    Serving splits request lifetime into a *prefill* step (the whole
    prompt, :func:`decoder_cost`) and many *decode* steps.  A decode step
    processes ``batch`` fresh tokens — one per running sequence — while
    attention reads the cumulative KV caches (``context_tokens`` summed
    across the batch).  Only the new tokens traverse the MoE layer, so
    the expert workload shrinks to ``batch`` tokens and the per-expert
    padding discussion of §6.2 bites hardest here.
    """
    if isinstance(engine, str):
        engine = ENGINES[engine]
    attn = decode_attention_cost(config, context_tokens, spec,
                                 batch=batch, flash=flash)
    moe = engine.cost(config, max(batch, 1), spec, num_shared=num_shared)
    norm_s = norm_seconds(config, max(batch, 1), spec)
    terms = _parallel_terms(config, max(batch, 1), spec, parallel,
                            cluster)
    if terms is None:
        return DecoderBreakdown(
            model=config.name,
            engine=engine.name,
            attention_s=attn.total_s,
            moe_s=moe.time_s,
            norm_s=norm_s,
            flash=flash,
            phase="decode",
        )
    attn_div, moe_div, comm_s = terms
    return DecoderBreakdown(
        model=config.name,
        engine=engine.name,
        attention_s=attn.total_s / attn_div,
        moe_s=moe.time_s / moe_div,
        norm_s=norm_s,
        flash=flash,
        phase="decode",
        comm_s=comm_s,
    )
