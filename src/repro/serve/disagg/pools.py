"""Pool model for disaggregated prefill/decode serving.

A :class:`PoolSpec` names one GPU pool and the phase(s) it serves;
:func:`validate_pools` checks the cross-pool invariants of a set of
them.  Each pool runs its own engine selection,
:class:`~repro.hw.interconnect.ParallelPlan`, batcher and memory
ledger (a :class:`~repro.serve.engine.Pool` at serving time); finished
prompts migrate from a prefill-role pool to a decode-role pool over
the link (priced by
:meth:`~repro.hw.interconnect.LinkSpec.transfer_seconds`, scheduled as
:class:`~repro.serve.events.KVTransfer` events).

Validation follows the :class:`~repro.workloads.tenants.TenantSpec`
convention: field-level errors raise :class:`~repro.errors.ConfigError`
messages of the form ``field: problem`` so the declarative API layer
can prefix them with their config path (``serving.pools[i].field``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping, Sequence

from repro.errors import ConfigError
from repro.hw.interconnect import ParallelPlan, parse_parallel
from repro.hw.spec import get_gpu
from repro.moe.layers import ENGINES
from repro.serve.batcher import BATCHER_NAMES
from repro.serve.engine import POOL_ROLES, Pool


@dataclass(frozen=True)
class PoolSpec:
    """One named GPU pool of a disaggregated deployment.

    Attributes:
        name: Pool identifier (unique across the deployment); carried
            by routing decisions, report sections and transfer events.
        role: Phase(s) served — ``prefill``, ``decode`` or ``both``.
        gpu: Device registry name; ``None`` inherits the deployment's
            ``hardware.gpu``.
        engine: Engine registry name for this pool; ``None`` inherits
            ``model.engine``.  Mixed pools (e.g. a sparse-tensor-core
            engine on prefill, a dense one on decode) are the point.
        parallel: Per-pool parallel plan in ``ep=4,tp=2`` syntax;
            ``None`` is the single-device identity plan.
        batcher: Step-composition policy; ``None`` inherits
            ``serving.batcher``.
        token_budget: Per-step token budget; ``None`` inherits.
        batch_size: Static-batcher batch size; ``None`` inherits.
        max_running: Admission concurrency cap; ``None`` inherits.
    """

    name: str
    role: str = "both"
    gpu: str | None = None
    engine: str | None = None
    parallel: str | None = None
    batcher: str | None = None
    token_budget: int | None = None
    batch_size: int | None = None
    max_running: int | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("name: must be a non-empty string")
        if self.role not in POOL_ROLES:
            raise ConfigError(
                f"role: must be one of {', '.join(POOL_ROLES)}; "
                f"got {self.role!r}")
        for field_name in ("gpu", "engine", "parallel", "batcher"):
            value = getattr(self, field_name)
            if value is not None and (not isinstance(value, str)
                                      or not value):
                raise ConfigError(
                    f"{field_name}: must be a non-empty string, "
                    f"got {value!r}")
        if self.gpu is not None:
            try:
                get_gpu(self.gpu)
            except Exception as exc:
                raise ConfigError(f"gpu: {exc}") from exc
        if self.engine is not None:
            try:
                ENGINES.get(self.engine)
            except Exception as exc:
                raise ConfigError(f"engine: {exc}") from exc
        if self.parallel is not None:
            try:
                parse_parallel(self.parallel)
            except ConfigError as exc:
                raise ConfigError(f"parallel: {exc}") from exc
        if self.batcher is not None and self.batcher not in BATCHER_NAMES:
            raise ConfigError(
                f"batcher: must be one of {', '.join(BATCHER_NAMES)}; "
                f"got {self.batcher!r}")
        for field_name in ("token_budget", "batch_size", "max_running"):
            value = getattr(self, field_name)
            if value is None:
                continue
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value <= 0):
                raise ConfigError(
                    f"{field_name}: must be a positive integer, "
                    f"got {value!r}")

    # -- phase capabilities --------------------------------------------
    @property
    def serves_prefill(self) -> bool:
        return self.role in ("prefill", "both")

    @property
    def serves_decode(self) -> bool:
        return self.role in ("decode", "both")

    @property
    def plan(self) -> ParallelPlan:
        """The pool's parallel plan (identity when unset)."""
        if self.parallel is None:
            return ParallelPlan()
        return parse_parallel(self.parallel)

    @property
    def num_devices(self) -> int:
        return self.plan.num_devices

    # -- wire format ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-type payload; :meth:`from_dict` inverts it exactly."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PoolSpec":
        """Build from a mapping, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"expected a mapping, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                f"{unknown[0]}: unknown field (known: "
                f"{', '.join(sorted(known))})")
        return cls(**dict(payload))


def validate_pools(pools: Sequence[PoolSpec | Pool]) -> None:
    """Cross-pool invariants of one disaggregated deployment.

    Pool names must be unique (they key report sections and transfer
    events), and the set must be able to serve *both* phases — at
    least one prefill-capable and one decode-capable pool — or every
    request would starve in one phase.  Checks pool specs and built
    :class:`~repro.serve.engine.Pool` objects alike.
    """
    if not pools:
        raise ConfigError("pools: must declare at least one pool")
    names = [p.name for p in pools]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ConfigError(f"pools: duplicate pool name {dup!r}")
    if not any(p.serves_prefill for p in pools):
        raise ConfigError(
            "pools: no prefill-capable pool (need role=prefill or "
            "role=both)")
    if not any(p.serves_decode for p in pools):
        raise ConfigError(
            "pools: no decode-capable pool (need role=decode or "
            "role=both)")
