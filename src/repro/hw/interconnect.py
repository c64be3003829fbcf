"""Device topology: interconnect links, clusters and parallel plans.

The paper evaluates Samoyeds on a single GPU; production MoE serving
shards experts across devices, and whether the single-device wins
survive depends on the interconnect.  This module supplies the three
pieces the rest of the stack threads through:

* :class:`LinkSpec` — an alpha-beta model of one interconnect
  generation (fixed per-message latency ``alpha`` plus inverse
  bandwidth ``beta``), with a registry covering NVLink, PCIe and
  InfiniBand;
* :class:`ClusterSpec` — N :class:`~repro.hw.spec.GPUSpec` devices
  joined by an intra-node link (and optionally a slower inter-node
  link once a collective spans nodes), pricing p2p transfers,
  ring all-reduce and all-to-all exchanges;
* :class:`ParallelPlan` — the (expert-parallel, tensor-parallel,
  data-parallel) degrees carried on
  :class:`~repro.context.ExecutionContext`, plus the
  ``ep=4,tp=2`` command-line syntax via :func:`parse_parallel`.

Collective costs follow the standard alpha-beta forms (Thakur et al.):
a ring all-reduce moves ``2 (p-1)/p`` of the buffer through every
device; an all-to-all sends each device's ``(p-1)/p`` share pairwise.
Both are exactly zero for a single-device group, which is what keeps
the default ``ParallelPlan(ep=1, tp=1)`` path bit-identical to the
single-GPU stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError, HardwareModelError
from repro.hw.spec import GPUSpec
from repro.registry.core import Registry

#: Bytes per activation element moved by the boundary collectives
#: (fp16 hidden states) — the single source for every comm-byte count.
ACT_BYTES = 2


# ----------------------------------------------------------------------
# Links
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LinkSpec:
    """Alpha-beta model of one interconnect link.

    Attributes:
        name: Registry key.
        latency_s: Per-message fixed cost (the ``alpha`` term).
        bandwidth: Sustained point-to-point bandwidth in bytes/second
            (the inverse of the ``beta`` term).
    """

    name: str
    latency_s: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigError(f"link {self.name}: negative latency")
        if self.bandwidth <= 0:
            raise ConfigError(f"link {self.name}: bandwidth must be "
                              f"positive")

    def transfer_seconds(self, nbytes: float) -> float:
        """One point-to-point message of ``nbytes``: alpha + n * beta."""
        if nbytes < 0:
            raise ConfigError("cannot transfer a negative byte count")
        if nbytes == 0:
            return 0.0
        return self.latency_s + nbytes / self.bandwidth

    def with_overrides(self, **kwargs: object) -> "LinkSpec":
        """Copy with fields replaced (bandwidth what-if studies)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


#: The interconnect registry (NVLink/PCIe/IB plus caller additions).
LINK_REGISTRY: Registry[LinkSpec] = Registry("link",
                                             error_cls=HardwareModelError)


def register_link(link: LinkSpec, replace: bool = False) -> LinkSpec:
    """Add ``link`` to the registry; collisions raise unless replacing
    (mirrors :func:`repro.hw.spec.register_gpu`)."""
    return LINK_REGISTRY.register(link.name, link, replace=replace)


def get_link(name: str) -> LinkSpec:
    """Look up a registered link by name (did-you-mean on a miss)."""
    return LINK_REGISTRY.get(name)


def list_links() -> list[str]:
    """Names of all registered links, sorted."""
    return LINK_REGISTRY.names()


#: Public datasheet-order numbers; as with the GPU registry, ratios
#: matter more than absolutes.
NVLINK4 = register_link(LinkSpec(name="nvlink", latency_s=1.5e-6,
                                 bandwidth=450e9))
PCIE_GEN4 = register_link(LinkSpec(name="pcie4", latency_s=4.0e-6,
                                   bandwidth=32e9))
IB_NDR = register_link(LinkSpec(name="ib", latency_s=8.0e-6,
                                bandwidth=50e9))
#: The free-handoff limit: every transfer over it costs exactly zero
#: seconds.  Used by degenerate disaggregated configs (a single pool
#: serving both phases) to assert that a zero-cost KV hop reproduces
#: the colocated report byte for byte.
ZERO_COPY = register_link(LinkSpec(name="zero-copy", latency_s=0.0,
                                   bandwidth=float("inf")))

DEFAULT_LINK = NVLINK4


# ----------------------------------------------------------------------
# Parallel plans
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ParallelPlan:
    """How one model forward is spread over devices.

    Attributes:
        ep: Expert-parallel degree — routed experts are partitioned
            over ``ep`` devices; tokens reach their experts through a
            dispatch/combine all-to-all.
        tp: Tensor-parallel degree — every GEMM (attention QKVO and
            each expert's projections) is column/row sharded over
            ``tp`` devices with an all-reduce at the attention and MLP
            output boundaries.
        dp: Data-parallel replication — whole-model replicas serving
            disjoint request streams.

    The device grid is ``ep * tp * dp`` wide; ``ParallelPlan()`` is the
    single-GPU identity plan under which every cost reduces exactly to
    the pre-cluster stack.
    """

    ep: int = 1
    tp: int = 1
    dp: int = 1

    def __post_init__(self) -> None:
        for name in ("ep", "tp", "dp"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(
                    f"parallel degree {name} must be a positive integer, "
                    f"got {value!r}")

    @property
    def num_devices(self) -> int:
        return self.ep * self.tp * self.dp

    @property
    def is_trivial(self) -> bool:
        """True for the single-GPU identity plan."""
        return self.num_devices == 1

    def describe(self) -> str:
        return f"ep={self.ep},tp={self.tp},dp={self.dp}"

    def to_dict(self) -> dict[str, int]:
        return {"ep": self.ep, "tp": self.tp, "dp": self.dp,
                "num_devices": self.num_devices}

    @classmethod
    def from_any(cls, value: "ParallelPlan | str | dict | None"
                 ) -> "ParallelPlan":
        """Coerce any accepted plan syntax to a :class:`ParallelPlan`.

        Accepts an existing plan, ``None`` (the identity plan), the
        ``ep=4,tp=2`` string syntax, or a mapping with ``ep``/``tp``/
        ``dp`` keys (the derived ``num_devices`` key of :meth:`to_dict`
        payloads is tolerated and ignored).
        """
        if value is None:
            return TRIVIAL_PLAN
        if isinstance(value, ParallelPlan):
            return value
        if isinstance(value, str):
            return parse_parallel(value)
        if isinstance(value, dict):
            degrees = {k: v for k, v in value.items()
                       if k != "num_devices"}
            unknown = set(degrees) - {"ep", "tp", "dp"}
            if unknown:
                raise ConfigError(
                    f"unknown parallel keys {sorted(unknown)}; known "
                    f"keys: ep, tp, dp")
            return cls(**degrees)
        raise ConfigError(
            f"cannot build a ParallelPlan from {type(value).__name__}; "
            f"expected a plan, 'ep=4,tp=2' string or mapping")


#: The single-GPU identity plan (shared default instance).
TRIVIAL_PLAN = ParallelPlan()


def parse_parallel(text: str | None) -> ParallelPlan:
    """Parse the ``ep=4,tp=2`` command-line syntax.

    Accepts any comma-separated subset of ``ep``/``tp``/``dp``
    assignments (omitted degrees default to 1); rejects unknown keys,
    non-integer or non-positive values and malformed fragments with
    :class:`~repro.errors.ConfigError`.
    """
    if text is None or not text.strip():
        return TRIVIAL_PLAN
    degrees: dict[str, int] = {}
    for fragment in text.split(","):
        fragment = fragment.strip()
        if not fragment:
            continue
        key, sep, value = fragment.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(
                f"malformed parallel spec {fragment!r}; expected "
                f"key=value (e.g. ep=4,tp=2)")
        if key not in ("ep", "tp", "dp"):
            raise ConfigError(
                f"unknown parallel key {key!r}; known keys: ep, tp, dp")
        if key in degrees:
            raise ConfigError(f"duplicate parallel key {key!r}")
        try:
            degrees[key] = int(value.strip())
        except ValueError:
            raise ConfigError(
                f"parallel degree {key} must be an integer, got "
                f"{value.strip()!r}") from None
    return ParallelPlan(**degrees)


# ----------------------------------------------------------------------
# Clusters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterSpec:
    """N devices joined by an interconnect.

    Attributes:
        gpus: The member devices (homogeneous in the common case; the
            per-device memory ledgers support heterogeneous capacity).
        link: Intra-node link joining devices within one node.
        devices_per_node: Node width; ``None`` means one flat node.
        inter_node_link: Link used once a collective group spans more
            than one node (defaults to the intra-node link).
    """

    gpus: tuple[GPUSpec, ...]
    link: LinkSpec = DEFAULT_LINK
    devices_per_node: int | None = None
    inter_node_link: LinkSpec | None = None

    def __post_init__(self) -> None:
        if not self.gpus:
            raise ConfigError("a cluster needs at least one device")
        if self.devices_per_node is not None and self.devices_per_node <= 0:
            raise ConfigError("devices_per_node must be positive")

    @classmethod
    def homogeneous(cls, gpu: GPUSpec, num_devices: int,
                    link: LinkSpec | str = DEFAULT_LINK,
                    devices_per_node: int | None = None,
                    inter_node_link: LinkSpec | str | None = None
                    ) -> "ClusterSpec":
        """The common case: ``num_devices`` copies of one GPU model."""
        if num_devices <= 0:
            raise ConfigError("num_devices must be positive")
        if isinstance(link, str):
            link = get_link(link)
        if isinstance(inter_node_link, str):
            inter_node_link = get_link(inter_node_link)
        return cls(gpus=(gpu,) * num_devices, link=link,
                   devices_per_node=devices_per_node,
                   inter_node_link=inter_node_link)

    @property
    def num_devices(self) -> int:
        return len(self.gpus)

    def device(self, index: int) -> GPUSpec:
        if not 0 <= index < self.num_devices:
            raise ConfigError(
                f"device index {index} out of range for "
                f"{self.num_devices}-device cluster")
        return self.gpus[index]

    def group_link(self, group_size: int) -> LinkSpec:
        """Effective link for a collective over ``group_size`` devices.

        The slowest hop bounds the collective: once the group spans
        more than one node, the inter-node link prices it.
        """
        if (self.devices_per_node is not None
                and group_size > self.devices_per_node
                and self.inter_node_link is not None):
            return self.inter_node_link
        return self.link

    # -- alpha-beta collective costs -----------------------------------
    def allreduce_seconds(self, nbytes: float, group_size: int) -> float:
        """Ring all-reduce of an ``nbytes`` buffer over ``group_size``
        devices: ``2 (p-1)`` latency hops, ``2 (p-1)/p`` of the buffer
        through the link.  Zero for a single-device group."""
        if group_size <= 0:
            raise ConfigError("group_size must be positive")
        if group_size == 1 or nbytes <= 0:
            return 0.0
        link = self.group_link(group_size)
        hops = 2 * (group_size - 1)
        moved = 2.0 * (group_size - 1) / group_size * nbytes
        return hops * link.latency_s + moved / link.bandwidth

    def alltoall_seconds(self, nbytes_per_device: float,
                         group_size: int) -> float:
        """All-to-all where every device holds ``nbytes_per_device`` and
        exchanges its ``(p-1)/p`` remote share pairwise.  Zero for a
        single-device group."""
        if group_size <= 0:
            raise ConfigError("group_size must be positive")
        if group_size == 1 or nbytes_per_device <= 0:
            return 0.0
        link = self.group_link(group_size)
        moved = (group_size - 1) / group_size * nbytes_per_device
        return (group_size - 1) * link.latency_s + moved / link.bandwidth

    def describe(self) -> str:
        gpu = self.gpus[0].name
        if all(g.name == gpu for g in self.gpus):
            return f"{self.num_devices}x{gpu} over {self.link.name}"
        names = "+".join(g.name for g in self.gpus)
        return f"{names} over {self.link.name}"


def make_cluster(gpu: GPUSpec, parallel: ParallelPlan,
                 link: LinkSpec | str = DEFAULT_LINK) -> ClusterSpec:
    """Cluster sized to carry ``parallel`` on copies of ``gpu``."""
    return ClusterSpec.homogeneous(gpu, parallel.num_devices, link)
