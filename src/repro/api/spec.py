"""Typed deployment specs: the declarative half of the public API.

The serving stack spans engines, batchers, paged KV admission, parallel
plans and cluster topologies.  Here every choice becomes *data*: four
frozen section specs composed into one :class:`DeploymentSpec` —

* :class:`ModelSpec` — which Table-2 model and MoE engine, how many
  decoder layers per step, FlashAttention on or off;
* :class:`HardwareSpec` — the target GPU, the interconnect link and the
  :class:`~repro.hw.interconnect.ParallelPlan` spreading the server
  over a device grid;
* :class:`ServingSpec` — the batching policy and its knobs, paged-KV
  page size, expert placement, serving horizon;
* :class:`WorkloadSpec` — the arrival trace shape (kind, rate,
  lengths, seed) and the routing-skew profile of the traffic.

Every spec validates its fields on construction with *path-qualified*
errors (``serving.page_size: must be > 0``), round-trips exactly
through ``to_dict()``/``from_dict()`` (so specs can live in YAML/JSON
files — see :mod:`repro.api.loader`), and rejects unknown keys instead
of silently ignoring typos.  :meth:`DeploymentSpec.with_overrides`
applies dotted-path updates (``{"workload.qps": 8.0}``), which is what
sweep grids expand through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.errors import ConfigError, ReproError, RoutingError
from repro.hw.interconnect import LINK_REGISTRY, ParallelPlan
from repro.hw.spec import GPU_REGISTRY
from repro.moe.config import MODEL_REGISTRY
from repro.moe.layers import ENGINES
from repro.moe.trace import validate_skew
from repro.serve.batcher import BATCHER_NAMES
from repro.serve.disagg.pools import PoolSpec, validate_pools
from repro.serve.disagg.routers import ROUTERS
from repro.serve.scheduling import SCHEDULER_NAMES
from repro.utils.rng import DEFAULT_SEED
from repro.workloads.registry import WORKLOADS
from repro.workloads.tenants import TenantSpec, validate_tenants

import repro.registry.selector  # noqa: F401  (registers engine "auto")

#: Friendly engine aliases accepted anywhere an engine is named (specs
#: and the ``serve --engines`` flag; the CLI re-exports this map).
ENGINE_ALIASES = {"vllm": "vllm-ds", "hf": "transformers"}

#: Expert-placement policies (mirrors ``moe.scheduler.place_experts``).
PLACEMENT_POLICIES = ("balanced", "round_robin")


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _check_registered(path: str, registry, name: object) -> None:
    """Validate ``name`` against a live registry at ``validate()`` time.

    Misses re-raise the registry's own message (sorted known names plus
    a did-you-mean suggestion) path-qualified, e.g. ``model.engine:
    unknown engine 'vlm'; known engines: ... (did you mean
    'vllm-ds'?)``.  Runs on construction, which covers every
    ``sweep:``-expanded point before anything is built.
    """
    try:
        registry.get(name)
    except ReproError as exc:
        _fail(path, str(exc))


def _check_positive_int(path: str, value: object,
                        optional: bool = False) -> None:
    if value is None and optional:
        return
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"must be an integer, got {value!r}")
    if value <= 0:
        _fail(path, "must be > 0")


def _check_positive_float(path: str, value: object,
                          optional: bool = False) -> None:
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"must be a number, got {value!r}")
    if not math.isfinite(value):
        _fail(path, f"must be finite, got {value!r}")
    if value <= 0:
        _fail(path, "must be > 0")


def _check_bool(path: str, value: object) -> None:
    if not isinstance(value, bool):
        _fail(path, f"must be a boolean, got {value!r}")


def _check_choice(path: str, value: object, choices: tuple[str, ...]
                  ) -> None:
    if value not in choices:
        _fail(path, f"must be one of {', '.join(choices)}; "
                    f"got {value!r}")


class _SpecBase:
    """Shared ``to_dict``/``from_dict`` plumbing of the section specs.

    Subclasses set ``_SECTION`` (the path prefix of validation errors)
    and may override :meth:`_encode_field` / :meth:`_decode_field` for
    fields that are not plain JSON scalars.
    """

    _SECTION = "spec"

    def to_dict(self) -> dict[str, Any]:
        """Plain-type payload; ``from_dict`` inverts it exactly."""
        out: dict[str, Any] = {}
        for f in fields(self):                   # type: ignore[arg-type]
            out[f.name] = self._encode_field(f.name,
                                             getattr(self, f.name))
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]):
        """Build a spec from a mapping, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"{cls._SECTION}: expected a mapping, got "
                f"{type(payload).__name__}")
        known = {f.name for f in fields(cls)}    # type: ignore[arg-type]
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                f"{cls._SECTION}.{unknown[0]}: unknown field (known: "
                f"{', '.join(sorted(known))})")
        kwargs = {key: cls._decode_field(key, value)
                  for key, value in payload.items()}
        return cls(**kwargs)

    def _encode_field(self, name: str, value: Any) -> Any:
        return value

    @classmethod
    def _decode_field(cls, name: str, value: Any) -> Any:
        return value


@dataclass(frozen=True)
class ModelSpec(_SpecBase):
    """Which model forward the server prices.

    Attributes:
        name: Table-2 model registry key.
        engine: MoE execution engine (aliases ``vllm``/``hf`` accepted).
        num_layers: Decoder layers per step; ``None`` uses the model's
            own layer count, ``1`` reproduces the paper's single-layer
            protocol.
        flash: FlashAttention toggle.
    """

    _SECTION = "model"

    name: str = "mixtral-8x7b"
    engine: str = "samoyeds"
    num_layers: int | None = None
    flash: bool = True

    def __post_init__(self) -> None:
        _check_registered("model.name", MODEL_REGISTRY, self.name)
        if self.engine in ENGINE_ALIASES:     # normalise to canonical
            object.__setattr__(self, "engine",
                               ENGINE_ALIASES[self.engine])
        _check_registered("model.engine", ENGINES, self.engine)
        _check_positive_int("model.num_layers", self.num_layers,
                            optional=True)
        _check_bool("model.flash", self.flash)


@dataclass(frozen=True)
class HardwareSpec(_SpecBase):
    """Where the server runs: device, interconnect, parallel plan.

    Attributes:
        gpu: GPU registry key.
        link: Interconnect registry key joining the device grid (only
            priced when ``parallel`` is non-trivial).
        parallel: Device-parallelism degrees; accepts the ``ep=4,tp=2``
            string (or mapping) syntax through ``from_dict``.
        streams: GPU streams for expert-segment LPT overlap.
    """

    _SECTION = "hardware"

    gpu: str = "rtx4070s"
    link: str = "nvlink"
    parallel: ParallelPlan = field(default_factory=ParallelPlan)
    streams: int = 1

    def __post_init__(self) -> None:
        _check_registered("hardware.gpu", GPU_REGISTRY, self.gpu)
        _check_registered("hardware.link", LINK_REGISTRY, self.link)
        if not isinstance(self.parallel, ParallelPlan):
            _fail("hardware.parallel",
                  "must be a ParallelPlan (or the 'ep=4,tp=2' syntax "
                  "in config files)")
        if self.parallel.dp > 1:
            _fail("hardware.parallel",
                  "dp > 1 replicas are not served by one engine; run "
                  "one deployment per replica")
        _check_positive_int("hardware.streams", self.streams)

    def _encode_field(self, name: str, value: Any) -> Any:
        if name == "parallel":
            return value.describe()              # "ep=4,tp=2,dp=1"
        return value

    @classmethod
    def _decode_field(cls, name: str, value: Any) -> Any:
        if name == "parallel":
            try:
                return ParallelPlan.from_any(value)
            except ConfigError as exc:
                raise ConfigError(f"hardware.parallel: {exc}") from None
        return value


@dataclass(frozen=True)
class ServingSpec(_SpecBase):
    """How the engine schedules and charges memory.

    Attributes:
        batcher: Step-composition policy name.
        token_budget: Per-step new-token budget of the budgeted
            policies.
        batch_size: Static-batcher batch size.
        max_running: Optional resident-request cap below the
            memory-derived limit.
        page_size: KV page size in tokens; ``None`` keeps the
            conservative whole-request reservation, a positive value
            switches to paged admission with preemption.
        scheduler: Preemption/queue-order policy: ``youngest_first``
            (the historical default, byte-identical to the goldens) or
            ``priority_slack`` (SLO-aware: evict low priority / most
            slack first, admit high priority first).
        placement: Expert-to-device placement policy under expert
            parallelism.
        horizon_s: Optional serving horizon (seconds of simulated
            clock).
        sanitize: Run under the sim-sanitizer's runtime invariant
            checks (see :mod:`repro.analysis.sanitizer`).  ``False``
            still honours the ``REPRO_SANITIZE`` environment variable
            at run time; reports are byte-identical either way.
        pools: Disaggregated prefill/decode pools
            (:class:`~repro.serve.disagg.PoolSpec`); ``None`` keeps
            the colocated engine (and the pre-disagg report and config
            payload shapes).  A single ``role: both`` pool is the
            documented degenerate form and also runs colocated.
        router: Pool-assignment policy (``repro list routers``);
            only read when ``pools`` is set.
        transfer_link: Interconnect pricing the prefill -> decode KV
            migration (``zero-copy`` is the free-handoff limit); only
            read when ``pools`` is set.
    """

    _SECTION = "serving"

    batcher: str = "continuous"
    token_budget: int = 4096
    batch_size: int = 8
    max_running: int | None = None
    page_size: int | None = None
    scheduler: str = "youngest_first"
    placement: str = "balanced"
    horizon_s: float | None = None
    sanitize: bool = False
    pools: tuple[PoolSpec, ...] | None = None
    router: str = "round_robin"
    transfer_link: str = "pcie4"

    def __post_init__(self) -> None:
        _check_choice("serving.batcher", self.batcher, BATCHER_NAMES)
        _check_positive_int("serving.token_budget", self.token_budget)
        _check_positive_int("serving.batch_size", self.batch_size)
        _check_positive_int("serving.max_running", self.max_running,
                            optional=True)
        _check_positive_int("serving.page_size", self.page_size,
                            optional=True)
        _check_choice("serving.scheduler", self.scheduler,
                      SCHEDULER_NAMES)
        _check_choice("serving.placement", self.placement,
                      PLACEMENT_POLICIES)
        _check_positive_float("serving.horizon_s", self.horizon_s,
                              optional=True)
        _check_bool("serving.sanitize", self.sanitize)
        if self.pools is not None:
            if not isinstance(self.pools, tuple):
                _fail("serving.pools",
                      "must be a tuple of PoolSpec (a list of mappings "
                      "in config files)")
            for i, pool in enumerate(self.pools):
                if not isinstance(pool, PoolSpec):
                    _fail(f"serving.pools[{i}]",
                          f"must be a PoolSpec, got "
                          f"{type(pool).__name__}")
            try:
                validate_pools(self.pools)
            except ConfigError as exc:
                # validate_pools messages start with "pools: ...";
                # qualify them as serving.pools: ...
                raise ConfigError(f"serving.{exc}") from None
        _check_registered("serving.router", ROUTERS, self.router)
        _check_registered("serving.transfer_link", LINK_REGISTRY,
                          self.transfer_link)

    def to_dict(self) -> dict[str, Any]:
        """Plain-type payload; ``from_dict`` inverts it exactly.

        The disagg keys (``pools``/``router``/``transfer_link``) are
        emitted only when ``pools`` is set, so colocated specs keep
        their historical payload shape byte-for-byte.
        """
        out = super().to_dict()
        if self.pools is None:
            for key in ("pools", "router", "transfer_link"):
                del out[key]
        return out

    def _encode_field(self, name: str, value: Any) -> Any:
        if name == "pools" and value is not None:
            return [pool.to_dict() for pool in value]
        return value

    @classmethod
    def _decode_field(cls, name: str, value: Any) -> Any:
        if name == "pools" and value is not None:
            if not isinstance(value, (list, tuple)):
                _fail("serving.pools",
                      f"must be a list of pool mappings, got "
                      f"{type(value).__name__}")
            decoded = []
            for i, entry in enumerate(value):
                if isinstance(entry, PoolSpec):
                    decoded.append(entry)
                    continue
                if not isinstance(entry, Mapping):
                    _fail(f"serving.pools[{i}]",
                          f"must be a mapping, got "
                          f"{type(entry).__name__}")
                entry = dict(entry)
                if entry.get("engine") in ENGINE_ALIASES:
                    entry["engine"] = ENGINE_ALIASES[entry["engine"]]
                try:
                    decoded.append(PoolSpec.from_dict(entry))
                except ConfigError as exc:
                    # Pool errors are "field: message"; qualify them
                    # as serving.pools[i].field: message.
                    raise ConfigError(
                        f"serving.pools[{i}].{exc}") from None
            return tuple(decoded)
        return value


@dataclass(frozen=True)
class WorkloadSpec(_SpecBase):
    """What traffic the server faces.

    Attributes:
        kind: Arrival-trace shape, validated against the
            :data:`repro.workloads.WORKLOADS` registry (``poisson``,
            ``bursty``, ``diurnal``, ``flash_crowd``, ``trace`` plus
            any third-party registration).
        requests: Number of requests in the trace.
        qps: Offered load in requests/second.
        prompt_tokens: Mean prompt length.
        output_tokens: Mean output length.
        jitter: Half-width of the uniform length band, in [0, 1).
        eos_sampling: Geometric EOS-sampled output lengths instead of
            the uniform jitter band (seeded, reproducible).
        burst_factor: Burst rate multiplier (bursty traces only).
        burst_len: Requests per burst (bursty traces only).
        period_s: Day length in simulated seconds (diurnal only).
        amplitude: Peak-to-mean rate swing in [0, 1] (diurnal only).
        crowd_factor: Spike rate multiplier (flash_crowd only).
        crowd_start_s: Spike window start (flash_crowd only).
        crowd_duration_s: Spike window length (flash_crowd only).
        trace_path: CSV trace file to replay (required for — and only
            valid with — file-replay kinds such as ``trace``).
        tenants: Multi-tenant request classes
            (:class:`~repro.workloads.tenants.TenantSpec`); empty
            keeps the single implicit tenant and the pre-tenant
            report shape.
        routing_skew: Zipf skew of per-step expert loads.
        seed: Trace and engine RNG seed.
    """

    _SECTION = "workload"

    kind: str = "poisson"
    requests: int = 48
    qps: float = 2.0
    prompt_tokens: int = 512
    output_tokens: int = 32
    jitter: float = 0.5
    eos_sampling: bool = False
    burst_factor: float = 8.0
    burst_len: int = 16
    period_s: float = 60.0
    amplitude: float = 0.5
    crowd_factor: float = 8.0
    crowd_start_s: float = 5.0
    crowd_duration_s: float = 5.0
    trace_path: str | None = None
    tenants: tuple[TenantSpec, ...] = ()
    routing_skew: float = 0.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        _check_registered("workload.kind", WORKLOADS, self.kind)
        _check_positive_int("workload.requests", self.requests)
        _check_positive_float("workload.qps", self.qps)
        _check_positive_int("workload.prompt_tokens", self.prompt_tokens)
        _check_positive_int("workload.output_tokens", self.output_tokens)
        if (isinstance(self.jitter, bool)
                or not isinstance(self.jitter, (int, float))
                or not 0.0 <= self.jitter < 1.0):
            _fail("workload.jitter", "must be in [0, 1)")
        _check_bool("workload.eos_sampling", self.eos_sampling)
        _check_positive_float("workload.burst_factor", self.burst_factor)
        if self.burst_factor <= 1.0:
            _fail("workload.burst_factor", "must be > 1")
        _check_positive_int("workload.burst_len", self.burst_len)
        _check_positive_float("workload.period_s", self.period_s)
        if (isinstance(self.amplitude, bool)
                or not isinstance(self.amplitude, (int, float))
                or not 0.0 <= self.amplitude <= 1.0):
            _fail("workload.amplitude", "must be in [0, 1]")
        _check_positive_float("workload.crowd_factor", self.crowd_factor)
        if self.crowd_factor <= 1.0:
            _fail("workload.crowd_factor", "must be > 1")
        if (isinstance(self.crowd_start_s, bool)
                or not isinstance(self.crowd_start_s, (int, float))
                or not 0 <= self.crowd_start_s < math.inf):
            _fail("workload.crowd_start_s", "must be finite and >= 0")
        _check_positive_float("workload.crowd_duration_s",
                              self.crowd_duration_s)
        if self.trace_path is not None:
            if not isinstance(self.trace_path, str) or not self.trace_path:
                _fail("workload.trace_path",
                      f"must be a non-empty string, got "
                      f"{self.trace_path!r}")
            if not WORKLOADS[self.kind].from_file:
                _fail("workload.trace_path",
                      f"only applies to file-replay kinds, not "
                      f"{self.kind!r}")
        elif WORKLOADS[self.kind].from_file:
            _fail("workload.trace_path",
                  f"required for kind {self.kind!r}")
        if not isinstance(self.tenants, tuple):
            _fail("workload.tenants",
                  "must be a tuple of TenantSpec (a list of mappings "
                  "in config files)")
        for i, tenant in enumerate(self.tenants):
            if not isinstance(tenant, TenantSpec):
                _fail(f"workload.tenants[{i}]",
                      f"must be a TenantSpec, got "
                      f"{type(tenant).__name__}")
        try:
            validate_tenants(self.tenants)
        except ConfigError as exc:
            _fail("workload.tenants", str(exc))
        try:
            validate_skew(self.routing_skew)
        except RoutingError as exc:
            _fail("workload.routing_skew", str(exc))
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            _fail("workload.seed",
                  f"must be an integer, got {self.seed!r}")
        if self.seed < 0:
            _fail("workload.seed", "must be >= 0")

    def _encode_field(self, name: str, value: Any) -> Any:
        if name == "tenants":
            return [tenant.to_dict() for tenant in value]
        return value

    @classmethod
    def _decode_field(cls, name: str, value: Any) -> Any:
        if name == "tenants":
            if not isinstance(value, (list, tuple)):
                _fail("workload.tenants",
                      f"must be a list of tenant mappings, got "
                      f"{type(value).__name__}")
            decoded = []
            for i, entry in enumerate(value):
                if isinstance(entry, TenantSpec):
                    decoded.append(entry)
                    continue
                if not isinstance(entry, Mapping):
                    _fail(f"workload.tenants[{i}]",
                          f"must be a mapping, got "
                          f"{type(entry).__name__}")
                try:
                    decoded.append(TenantSpec.from_dict(entry))
                except ConfigError as exc:
                    # Tenant errors are "field: message"; qualify them
                    # as workload.tenants[i].field: message.
                    raise ConfigError(
                        f"workload.tenants[{i}].{exc}") from None
            return tuple(decoded)
        return value


#: Section name -> spec class, in the order config files list them.
SECTIONS: dict[str, type[_SpecBase]] = {
    "model": ModelSpec,
    "hardware": HardwareSpec,
    "serving": ServingSpec,
    "workload": WorkloadSpec,
}


@dataclass(frozen=True)
class DeploymentSpec(_SpecBase):
    """One complete serving experiment as a value.

    Composes the four section specs; omitted sections (and omitted
    fields within a section) take their defaults, so the empty mapping
    is a valid config.  The whole spec round-trips exactly through
    ``to_dict()``/``from_dict()`` and compares by value, which is what
    the golden-equivalence and sweep-expansion guarantees rest on.
    """

    _SECTION = "deployment"

    model: ModelSpec = field(default_factory=ModelSpec)
    hardware: HardwareSpec = field(default_factory=HardwareSpec)
    serving: ServingSpec = field(default_factory=ServingSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)

    def __post_init__(self) -> None:
        for name, spec_cls in SECTIONS.items():
            value = getattr(self, name)
            if not isinstance(value, spec_cls):
                _fail(name, f"must be a {spec_cls.__name__}, got "
                            f"{type(value).__name__}")

    def to_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name).to_dict()
                for name in SECTIONS}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DeploymentSpec":
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"deployment config: expected a mapping, got "
                f"{type(payload).__name__}")
        unknown = sorted(set(payload) - set(SECTIONS))
        if unknown:
            hint = (" (put sweep axes under the top-level 'sweep' key "
                    "of the config file)" if unknown[0] == "sweep"
                    else "")
            raise ConfigError(
                f"{unknown[0]}: unknown section (known: "
                f"{', '.join(SECTIONS)}){hint}")
        kwargs = {}
        for name, spec_cls in SECTIONS.items():
            section = payload.get(name, {})
            if section is None:
                # A bare `model:` header in YAML parses to None; treat
                # it as the documented all-defaults section.
                section = {}
            kwargs[name] = spec_cls.from_dict(section)
        return cls(**kwargs)  # type: ignore[arg-type]

    def with_overrides(self, overrides: Mapping[str, Any]
                       ) -> "DeploymentSpec":
        """Copy with dotted-path fields replaced.

        Keys take the ``section.field`` form (``"workload.qps"``,
        ``"hardware.parallel"``); values pass through the same
        decoding and validation as ``from_dict``, so an override can
        use any file syntax (e.g. ``"ep=4,tp=2"`` for a plan).
        """
        payload = self.to_dict()
        for path, value in overrides.items():
            section, sep, name = path.partition(".")
            if not sep or section not in SECTIONS or not name:
                raise ConfigError(
                    f"override path {path!r} must take the "
                    f"section.field form with a section in "
                    f"{', '.join(SECTIONS)}")
            known = [f.name for f in fields(SECTIONS[section])]
            if name not in known:
                raise ConfigError(
                    f"{path}: unknown field (known: "
                    f"{', '.join(known)})")
            payload[section][name] = value
        return DeploymentSpec.from_dict(payload)
