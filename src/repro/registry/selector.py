"""Cost-driven engine selection: ``engine="auto"``.

Figures 12-13 of the paper show that no single kernel wins everywhere —
Samoyeds' SSMM beats the baselines on some (shape, density, device)
points and loses on others.  That is exactly the regime where the choice
should be automated: :class:`AutoEngine` queries every registered
engine's :class:`~repro.registry.capabilities.Capabilities`, prices the
compatible ones through their existing cost models and dispatches to
the argmin, so ``engine="auto"`` is never worse than the best fixed
engine *on the modelled grid*.

Selections are memoised in a :class:`SelectionTable` — a persistent
(device, problem-bucket, density) -> engine map with the same design as
:class:`~repro.kernels.autotuner.TuningTable`: power-of-two shape
buckets, JSON serialisation with a schema ``version`` field, and
:class:`~repro.errors.ConfigError` (naming the path) on corrupt or
schema-drifted files.  A deployment ships a pre-selected table the way
vendor libraries ship per-architecture dispatch tables.  The table is
process-wide, not shared between processes: pricing all 13 buckets up
to a 4,096-token budget takes milliseconds, and selection is
deterministic, so every sweep worker computes the same winners.

The module registers one shared :data:`AUTO_ENGINE` under the name
``"auto"`` on import; :mod:`repro.moe` imports it, so every front door
(``ExecutionContext.create``, ``DeploymentSpec``, the CLI) accepts
``engine="auto"`` without further wiring.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ConfigError, ReproError
from repro.kernels.autotuner import problem_bucket
from repro.moe.layers import ENGINES, MoEEngine, register_engine
from repro.registry.capabilities import Capabilities
from repro.registry.core import Registry
from repro.utils.persist import load_versioned_json, save_versioned_json

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.hw.simulator import CostBreakdown
    from repro.hw.spec import GPUSpec
    from repro.kernels.base import MatmulKernel
    from repro.moe.config import MoEModelConfig


class SelectionTable:
    """Persistent (device, problem bucket, density) -> engine map.

    Mirrors :class:`~repro.kernels.autotuner.TuningTable`: entries are
    keyed by the power-of-two bucket of the expert-segment GEMM shape
    (extended with the MoE-layer shape — expert count, top-k, shared
    experts, activation), and each stores the winning engine name plus
    its modelled seconds at the bucket point.  ``save``/``load``
    round-trip through JSON with a schema ``version`` field so a stale
    file fails loudly instead of mis-dispatching.
    """

    VERSION = 1

    def __init__(self, entries: "dict[str, dict] | None" = None) -> None:
        self.entries: dict[str, dict] = dict(entries or {})

    @staticmethod
    def key(device: str, problem: str, density: float) -> str:
        """``device:problem:density`` — the problem component is the
        GEMM bucket plus the MoE-layer shape (see
        :meth:`AutoEngine._problem_key`)."""
        return f"{device}:{problem}:d{density:g}"

    def record(self, key: str, engine: str, seconds: float) -> None:
        self.entries[key] = {"engine": engine, "seconds": float(seconds)}

    def lookup(self, key: str) -> "str | None":
        """Winning engine name for ``key``, or ``None`` on a miss."""
        entry = self.entries.get(key)
        return entry["engine"] if entry else None

    def save(self, path: "str | Path") -> None:
        save_versioned_json(path, "selection table", self.VERSION,
                            self.entries)

    @classmethod
    def load(cls, path: "str | Path") -> "SelectionTable":
        """Load a saved table; corruption raises :class:`ConfigError`.

        Unlike :class:`~repro.kernels.autotuner.TuningTable` there is
        no pre-version legacy format to grandfather, so a missing
        ``version`` field is rejected.
        """
        return cls(entries=load_versioned_json(
            path, "selection table", cls.VERSION,
            entry_ok=lambda v: isinstance(v, dict) and "engine" in v))

    def __len__(self) -> int:
        return len(self.entries)


class AutoEngine(MoEEngine):
    """Dispatching engine: price all compatible engines, run the argmin.

    For each expert-segment shape bucket the selector filters the
    registry by capability (``supports(config)`` for activation
    constraints, ``capabilities().supports_device(spec)`` for the
    sparse-ALU gate), prices every survivor at the bucket point through
    its own cost model and memoises the winner in :attr:`table`.
    ``cost()`` then returns the winner's breakdown for the *actual*
    token count, with ``detail["selected_engine"]`` naming the choice.

    The functional ``run`` face inherits the exact reference data flow
    (mathematically identical to the dense engines): auto-selection is
    a *performance* dispatch; accuracy experiments pin their engine.
    """

    name = "auto"
    #: Dispatcher, not a contestant: figure sweeps comparing "every
    #: engine" skip meta engines (auto would trivially equal the best).
    is_meta = True

    def __init__(self, registry: "Registry[MoEEngine] | None" = None,
                 table: "SelectionTable | None" = None) -> None:
        self._registry = registry
        self.table = table if table is not None else SelectionTable()

    # ------------------------------------------------------------------
    # Candidate set
    # ------------------------------------------------------------------
    @property
    def registry(self) -> "Registry[MoEEngine]":
        return self._registry if self._registry is not None else ENGINES

    def candidates(self) -> "list[tuple[str, MoEEngine]]":
        """Registered fixed engines, in legend (registration) order."""
        return [(name, engine) for name, engine in self.registry.items()
                if not getattr(engine, "is_meta", False)]

    def compatible_engines(self, config: "MoEModelConfig",
                           spec: "GPUSpec") -> "list[MoEEngine]":
        """Candidates that can legally run ``config`` on ``spec``."""
        return [engine for _, engine in self.candidates()
                if engine.supports(config)
                and engine.capabilities().supports_device(spec)]

    @property
    def density(self) -> float:
        """Weight density of the problem (the selection-table key axis):
        the sparse candidates' pruning level, 1.0 when only dense
        engines are registered."""
        densities = [engine.capabilities().a_density
                     for _, engine in self.candidates()]
        return min(densities, default=1.0)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    @staticmethod
    def _bucket(config: "MoEModelConfig",
                tokens: int) -> "tuple[int, int, int]":
        """Power-of-two bucket of the expert-segment GEMM shape."""
        return problem_bucket(config.intermediate_size,
                              config.hidden_size, max(1, tokens))

    @staticmethod
    def _problem_key(config: "MoEModelConfig", tokens: int,
                     num_shared: "int | None") -> str:
        """Problem-bucket component of the selection key.

        Beyond the GEMM bucket, the MoE-layer argmin depends on the
        full layer shape: expert count, top-k, shared experts and the
        activation (the NS markers).  Two Table-2 models can share a
        GEMM bucket (qwen2-moe and deepseek-moe both have h=1408,
        i=2048) while having different winners, so all of it keys the
        memo — never the model *name*, which third-party configs are
        free to reuse across shapes.
        """
        m, k, n = AutoEngine._bucket(config, tokens)
        shared = (config.num_shared_experts if num_shared is None
                  else num_shared)
        return (f"{m}x{k}x{n}-e{config.num_experts}-k{config.top_k}"
                f"-s{shared}-{config.activation}")

    def validate_choice(self, name: str, config: "MoEModelConfig",
                        spec: "GPUSpec") -> "MoEEngine | None":
        """Revalidate a (possibly shipped/stale) table entry.

        The named engine must be registered, must be a *fixed* engine
        — ``"auto"`` in a hand-edited table would dispatch the
        dispatcher to itself — and must still support the model on
        this device.  Returns the engine, or ``None`` when the entry
        cannot be honoured (the caller re-prices from scratch).
        """
        if name not in self.registry:
            return None
        engine = self.registry.get(name)
        if (not getattr(engine, "is_meta", False)
                and engine.supports(config)
                and engine.capabilities().supports_device(spec)):
            return engine
        return None

    def select(self, config: "MoEModelConfig", tokens: int,
               spec: "GPUSpec",
               num_shared: "int | None" = None) -> MoEEngine:
        """The engine winning this (config, tokens, device) point.

        Memoised per problem bucket: the first query prices every
        compatible engine at the bucket point and records the argmin;
        later queries in the same bucket are one table lookup.
        """
        bucket = self._bucket(config, tokens)
        key = SelectionTable.key(
            spec.name, self._problem_key(config, tokens, num_shared),
            self.density)
        choice = self.table.lookup(key)
        if choice is not None:
            engine = self.validate_choice(choice, config, spec)
            if engine is not None:
                return engine
        engines = self.compatible_engines(config, spec)
        if not engines:
            raise ConfigError(
                f"no registered engine supports {config.name} on "
                f"{spec.name}; candidates: "
                f"{', '.join(n for n, _ in self.candidates())}")
        bucket_tokens = bucket[2]
        best: "tuple[float, MoEEngine] | None" = None
        for engine in engines:
            try:
                seconds = engine.cost(config, bucket_tokens, spec,
                                      num_shared=num_shared).time_s
            except ReproError:
                continue          # legal by capability, infeasible here
            if best is None or seconds < best[0]:
                best = (seconds, engine)
        if best is None:
            raise ConfigError(
                f"every compatible engine failed to price {config.name} "
                f"on {spec.name}")
        self.table.record(key, best[1].name, best[0])
        return best[1]

    # ------------------------------------------------------------------
    # MoEEngine interface
    # ------------------------------------------------------------------
    def supports(self, config: "MoEModelConfig") -> bool:
        return any(engine.supports(config)
                   for _, engine in self.candidates())

    def capabilities(self) -> Capabilities:
        """Union view: auto itself never *requires* SpTCs (it can fall
        back to a dense engine) and issues whatever the winner does."""
        shapes: list[str] = []
        for _, engine in self.candidates():
            for shape in engine.capabilities().mma_shapes:
                if shape not in shapes:
                    shapes.append(shape)
        return Capabilities(sparsity_format="auto",
                            a_density=self.density,
                            mma_shapes=tuple(shapes),
                            needs_sparse_tensor_cores=False)

    def tile_rows(self, config: "MoEModelConfig") -> int:
        """Expert-segment n-tile: the samoyeds candidate's choice when
        one is registered (§4.2's 64/128 rule), else the 64 default."""
        for _, engine in self.candidates():
            rows = getattr(engine, "tile_rows", None)
            if rows is not None:
                return rows(config)
        return 64

    def segment_kernel(self, config: "MoEModelConfig",
                       spec: "GPUSpec") -> "MatmulKernel | None":
        """The winner's segment kernel for scheduler-level pricing
        (nominal 4096-token point, the paper's realistic shape)."""
        winner = self.select(config, 4096, spec)
        return winner.segment_kernel(config, spec)

    # Memory footprint: each term is the maximum over every candidate
    # that supports the model (on any device), so admission charges
    # what the most memory-hungry pick would hold and never over-admits.
    def _footprint_engines(self, config: "MoEModelConfig"
                           ) -> "list[MoEEngine]":
        self.check_supported(config)
        return [engine for _, engine in self.candidates()
                if engine.supports(config)]

    def fixed_overhead_bytes(self, config: "MoEModelConfig") -> float:
        return max(engine.fixed_overhead_bytes(config)
                   for engine in self._footprint_engines(config))

    def weight_factor(self, config: "MoEModelConfig") -> float:
        """The largest factor: the weight bytes grow with it, so they
        are the largest candidate's."""
        return max(engine.weight_factor(config)
                   for engine in self._footprint_engines(config))

    def workspace_bytes(self, config: "MoEModelConfig",
                        seq_len: int) -> float:
        return max(engine.workspace_bytes(config, seq_len)
                   for engine in self._footprint_engines(config))

    def cost(self, config: "MoEModelConfig", tokens: int,
             spec: "GPUSpec",
             num_shared: "int | None" = None) -> "CostBreakdown":
        """The selected engine's breakdown at the actual token count,
        with ``detail['selected_engine']`` naming the winner (the
        serving step pricer reads its per-step winner from there)."""
        engine = self.select(config, tokens, spec,
                             num_shared=num_shared)
        result = engine.cost(config, tokens, spec,
                             num_shared=num_shared)
        return replace(result, detail={**result.detail,
                                       "selected_engine": engine.name})


#: The shared dispatcher every front door resolves ``"auto"`` to.
AUTO_ENGINE = AutoEngine()

if "auto" not in ENGINES:          # tolerate repeated module execution
    register_engine(AUTO_ENGINE)
