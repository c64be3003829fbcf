"""End-to-end latency / throughput runner (§6.3, Figures 15 and 16).

Measures a single decoder layer per the paper's protocol and converts to
throughput.  Memory feasibility is enforced through the Table-3 footprint
model, so over-budget (engine, batch) points raise
:class:`~repro.errors.CapacityError` exactly where the paper prints OOM.

Every entry point takes an :class:`~repro.context.ExecutionContext`
carrying the model, engine, device and flash setting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.context import ExecutionContext
from repro.errors import CapacityError, ConfigError
from repro.models.decoder import DecoderBreakdown, decoder_cost
from repro.moe.layers import ENGINES


@dataclass(frozen=True)
class ModelPoint:
    """One (engine, batch) measurement."""

    engine: str
    batch: int
    seq_len: int
    latency_s: float
    tokens_per_s: float


def model_latency(ctx: ExecutionContext, batch: int = 1,
                  seq_len: int | None = None,
                  check_memory: bool = True) -> DecoderBreakdown:
    """Latency of one decoder layer at (batch, seq)."""
    seq = min(seq_len or ctx.config.max_seq_len, ctx.config.max_seq_len)
    if check_memory:
        # Per-device footprint under the context's parallel plan.
        ctx.footprint(seq).require_batch(batch)
    return decoder_cost(ctx.config, seq, ctx.spec, engine=ctx.engine,
                        batch=batch, flash=ctx.flash,
                        parallel=ctx.parallel, cluster=ctx.cluster)


def model_point(ctx: ExecutionContext, batch: int = 1,
                seq_len: int | None = None,
                check_memory: bool = True) -> ModelPoint:
    """Latency + throughput of one configuration."""
    breakdown = model_latency(ctx, batch=batch, seq_len=seq_len,
                              check_memory=check_memory)
    seq = min(seq_len or ctx.config.max_seq_len, ctx.config.max_seq_len)
    tokens = batch * seq
    return ModelPoint(engine=ctx.engine.name, batch=batch, seq_len=seq,
                      latency_s=breakdown.total_s,
                      tokens_per_s=tokens / breakdown.total_s)


def throughput_sweep(ctx: ExecutionContext,
                     batches: list[int] | None = None,
                     seq_len: int | None = None,
                     engines: list[str] | None = None
                     ) -> dict[str, list[ModelPoint | None]]:
    """Figure 16: throughput vs batch size; ``None`` marks OOM / NS.

    The sweep keeps the context's model, device and flash setting and
    compares every engine (pass ``engines`` to narrow it); the
    context's own engine is not consulted.
    """
    if batches is None:
        raise ConfigError("throughput_sweep requires explicit batches")
    seq = seq_len if seq_len is not None else ctx.config.max_seq_len
    engines = engines or list(ENGINES)
    out: dict[str, list[ModelPoint | None]] = {}
    for name in engines:
        engine_ctx = ctx.with_engine(name)
        series: list[ModelPoint | None] = []
        for batch in batches:
            try:
                series.append(model_point(engine_ctx, batch=batch,
                                          seq_len=seq))
            except (CapacityError, ConfigError):
                series.append(None)
        out[name] = series
    return out


def end_to_end_speedups(ctx: ExecutionContext,
                        batch: int = 1, seq_len: int | None = None,
                        baseline: str = "transformers"
                        ) -> dict[str, float | None]:
    """Figure 15: speedup of every engine over ``baseline``.

    ``None`` marks NS/OOM entries, mirroring the paper's markers.  The
    default sequence length is the model's positional limit
    (``config.max_seq_len``), matching §6.3's protocol of measuring each
    model at its own maximum context.  The context supplies the model,
    device and flash setting; its own engine is not consulted.
    """
    base_ctx = ctx.with_engine(baseline)
    config = base_ctx.config
    seq = min(seq_len or config.max_seq_len, config.max_seq_len)
    try:
        base = model_point(base_ctx, batch=batch, seq_len=seq)
    except (CapacityError, ConfigError) as exc:
        raise ConfigError(
            f"baseline {baseline} infeasible for {config.name}: {exc}"
        ) from exc
    out: dict[str, float | None] = {}
    for name, eng in ENGINES.items():
        if getattr(eng, "is_meta", False):
            continue     # auto is a dispatcher, not a contestant
        if name == baseline:
            out[name] = 1.0
            continue
        try:
            point = model_point(base_ctx.with_engine(name), batch=batch,
                                seq_len=seq)
            out[name] = base.latency_s / point.latency_s
        except (CapacityError, ConfigError):
            out[name] = None
    return out
