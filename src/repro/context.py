"""Shared execution context for model-, scheduler- and serving-level code.

:class:`ExecutionContext` bundles the choices every layer of the cost
stack needs — model config, engine, device, kernel, tiling, flash,
streams, tile size, parallel plan and topology — into one immutable
object.  The runner (``models/runner.py``), the expert-segment
schedulers (``moe/scheduler.py``) and the serving simulator in
:mod:`repro.serve` all take it as their one argument for those choices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigError, InternalError
from repro.hw.interconnect import (
    TRIVIAL_PLAN,
    ClusterSpec,
    ParallelPlan,
    make_cluster,
    parse_parallel,
)
from repro.hw.spec import DEFAULT_GPU, GPUSpec, get_gpu
from repro.moe.config import MoEModelConfig, get_model
from repro.moe.layers import ENGINES, MoEEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.kernels.base import MatmulKernel
    from repro.kernels.tiling import TilingConfig
    from repro.moe.memory_model import MemoryFootprint


def resolve_engine(engine: "MoEEngine | str") -> MoEEngine:
    """Registry lookup accepting an instance or a registry name.

    A miss raises :class:`ConfigError` listing every registered engine
    (including ``"auto"``, the cost-driven dispatcher) plus a
    did-you-mean suggestion — the uniform registry message.
    """
    if isinstance(engine, str):
        return ENGINES.get(engine)
    return engine


@dataclass(frozen=True)
class ExecutionContext:
    """Everything the cost stack needs to price one workload.

    Attributes:
        config: Table-2 model architecture.
        engine: MoE execution engine (one of the five contestants).
        spec: Target device.
        kernel: Optional expert-segment kernel override (defaults to the
            engine's own kernel choice).
        tiling: Optional frozen tiling configuration (§6.6 porting
            studies pin the development-platform tiling).
        flash: FlashAttention toggle (Figure 2's two panels).
        streams: GPU streams available for expert-segment overlap
            (``moe/scheduler.py`` policies; 1 = the paper's setup).
        tile_n: Expert-segment n-tile override; ``None`` derives it from
            the engine (64/128 per §4.2) or falls back to 64.
        parallel: Device-parallelism degrees (expert/tensor/data); the
            default identity plan keeps the single-GPU semantics.
        cluster: Device topology carrying ``parallel``; ``None`` derives
            a homogeneous NVLink cluster of ``spec`` copies on demand.
    """

    config: MoEModelConfig
    engine: MoEEngine
    spec: GPUSpec
    kernel: "MatmulKernel | None" = None
    tiling: "TilingConfig | None" = None
    flash: bool = True
    streams: int = 1
    tile_n: int | None = None
    parallel: ParallelPlan = TRIVIAL_PLAN
    cluster: ClusterSpec | None = None

    def __post_init__(self) -> None:
        if self.streams <= 0:
            raise ConfigError("streams must be positive")
        if self.tile_n is not None and self.tile_n <= 0:
            raise ConfigError("tile_n must be positive")
        if not isinstance(self.parallel, ParallelPlan):
            raise ConfigError("parallel must be a ParallelPlan (use "
                              "parse_parallel for 'ep=4,tp=2' strings)")
        if (self.cluster is not None
                and self.cluster.num_devices < self.parallel.num_devices):
            raise ConfigError(
                f"cluster has {self.cluster.num_devices} devices but the "
                f"parallel plan needs {self.parallel.num_devices}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, model: MoEModelConfig | str,
               engine: MoEEngine | str = "samoyeds",
               gpu: GPUSpec | str | None = None,
               **kwargs: object) -> "ExecutionContext":
        """Build a context from registry names or concrete objects.

        ``parallel`` additionally accepts the ``ep=4,tp=2`` string (or
        mapping) syntax, and a ``link`` keyword — a
        :class:`~repro.hw.interconnect.LinkSpec` or registry name —
        derives a homogeneous cluster of ``gpu`` copies joined by that
        link when the plan is non-trivial and no explicit ``cluster``
        was given.  This is the one construction path shared by the
        CLI, the deployment API and callers driving
        :class:`~repro.serve.engine.ServingEngine` directly.
        """
        config = get_model(model) if isinstance(model, str) else model
        spec = gpu if isinstance(gpu, GPUSpec) else (
            get_gpu(gpu) if gpu else DEFAULT_GPU)
        if "parallel" in kwargs:
            kwargs["parallel"] = ParallelPlan.from_any(
                kwargs["parallel"])  # type: ignore[arg-type]
        link = kwargs.pop("link", None)
        if link is not None and kwargs.get("cluster") is None:
            plan = kwargs.get("parallel", TRIVIAL_PLAN)
            if not isinstance(plan, ParallelPlan):
                raise InternalError(
                    "parallel plan was not normalised to ParallelPlan "
                    f"before cluster construction: {plan!r}")
            if not plan.is_trivial:
                from repro.hw.interconnect import get_link
                link_spec = (get_link(link) if isinstance(link, str)
                             else link)
                kwargs["cluster"] = make_cluster(spec, plan, link_spec)
        return cls(config=config, engine=resolve_engine(engine),
                   spec=spec, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def with_engine(self, engine: MoEEngine | str) -> "ExecutionContext":
        return replace(self, engine=resolve_engine(engine))

    def with_parallel(self, parallel: ParallelPlan | str,
                      cluster: ClusterSpec | None = None
                      ) -> "ExecutionContext":
        """Copy carrying a different parallel plan (and optional
        topology); accepts the ``ep=4,tp=2`` string syntax."""
        if isinstance(parallel, str):
            parallel = parse_parallel(parallel)
        return replace(self, parallel=parallel,
                       cluster=cluster if cluster is not None
                       else self.cluster)

    # ------------------------------------------------------------------
    # Derived choices
    # ------------------------------------------------------------------
    @property
    def effective_tile_n(self) -> int:
        """Expert-segment padding tile (engine-derived unless pinned).

        Engines that choose their own tile (Samoyeds' §4.2 64/128 rule,
        the ``auto`` dispatcher delegating to its samoyeds candidate)
        expose ``tile_rows``; everything else pads to 64.
        """
        if self.tile_n is not None:
            return self.tile_n
        tile_rows = getattr(self.engine, "tile_rows", None)
        if tile_rows is not None:
            return tile_rows(self.config)
        return 64

    def segment_kernel(self) -> "MatmulKernel":
        """Kernel pricing the per-expert SSMM segments.

        An explicit ``kernel`` wins; otherwise the engine's own segment
        kernel (for ``engine="auto"`` that is the cost-model winner's
        kernel for this config/device); the Samoyeds SSMM remains the
        final default, matching the paper's measurement setup.
        """
        if self.kernel is not None:
            return self.kernel
        kernel = self.engine.segment_kernel(self.config, self.spec)
        if kernel is not None:
            return kernel
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        return SamoyedsKernel()

    @property
    def cluster_spec(self) -> ClusterSpec:
        """The device topology carrying this context's plan.

        Defaults to a homogeneous NVLink cluster of ``spec`` copies
        sized to the parallel plan when no explicit cluster was given.
        """
        if self.cluster is not None:
            return self.cluster
        return make_cluster(self.spec, self.parallel)

    # ------------------------------------------------------------------
    # Cost-stack façade
    # ------------------------------------------------------------------
    def footprint(self, seq_len: int) -> "MemoryFootprint":
        """Per-device footprint (whole-device when the plan is trivial)."""
        from repro.moe.memory_model import footprint
        return footprint(self.config, self.engine.name, seq_len, self.spec,
                         parallel=self.parallel)

    def max_batch(self, seq_len: int) -> int:
        return self.footprint(seq_len).max_batch()

    def prefill_cost(self, seq_len: int, batch: int = 1):
        """Prefill-phase decoder-layer breakdown."""
        from repro.models.decoder import decoder_cost
        return decoder_cost(self.config, seq_len, self.spec,
                            engine=self.engine, batch=batch,
                            flash=self.flash, parallel=self.parallel,
                            cluster=self.cluster)

    def decode_cost(self, context_tokens: int, batch: int = 1):
        """Decode-phase (one new token per sequence) breakdown."""
        from repro.models.decoder import decoder_decode_cost
        return decoder_decode_cost(self.config, context_tokens, self.spec,
                                   engine=self.engine, batch=batch,
                                   flash=self.flash,
                                   parallel=self.parallel,
                                   cluster=self.cluster)
