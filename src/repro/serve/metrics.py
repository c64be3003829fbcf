"""Serving metrics: TTFT / TPOT / throughput / queue-depth percentiles.

The serving literature's standard quantities:

* **TTFT** — time to first token: arrival until the prefill step that
  produces the request's first output token completes;
* **TPOT** — time per output token: decode-phase pacing, ``(finish -
  first token) / (output_tokens - 1)``;
* **sustained QPS** — completed requests over the busy interval;
* **queue depth** — waiting requests sampled at every engine step;
* **preemptions** — running requests evicted back to the queue when the
  paged KV allocator ran out of blocks;
* **block utilisation** — charged fraction of the post-static memory
  pool, sampled per step (reservations or live blocks).

Percentiles use the deterministic sorted-linear-interpolation rule so a
fixed RNG seed reproduces a report bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Collection, Sequence

from repro.errors import ConfigError
from repro.serve.events import CLOCK_EPS
from repro.workloads.tenants import TenantSpec
from repro.workloads.traces import DEFAULT_TENANT, Request


def percentile(values: Sequence[float], q: float) -> float:
    """Deterministic percentile (sorted, linear interpolation)."""
    if not values:
        raise ConfigError("cannot take a percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ConfigError("percentile must be in [0, 100]")
    return _ranked(sorted(values), q)


def _ranked(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of already sorted, non-empty ``ordered``."""
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


@dataclass(frozen=True)
class PercentileSummary:
    """Typed p50/p90/p99/mean/max block of one metric.

    Read it through its fields (``summary.p99``); ``to_dict()`` emits
    the report's JSON block in its fixed key order.
    """

    p50: float
    p90: float
    p99: float
    mean: float
    max: float

    _KEYS = ("p50", "p90", "p99", "mean", "max")

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "PercentileSummary":
        """The block of ``values``; the all-zero block when there are
        none (a run or tenant that completed nothing)."""
        if not values:
            return cls.zero()
        ordered = sorted(values)
        # The mean sums in recorded order: the sorted copy would round
        # differently.
        return cls(p50=_ranked(ordered, 50.0),
                   p90=_ranked(ordered, 90.0),
                   p99=_ranked(ordered, 99.0),
                   mean=sum(values) / len(values),
                   max=float(ordered[-1]))

    @classmethod
    def zero(cls) -> "PercentileSummary":
        """The all-zero block of no values."""
        return cls(p50=0.0, p90=0.0, p99=0.0, mean=0.0, max=0.0)

    @classmethod
    def from_dict(cls, payload: "dict[str, float]") -> "PercentileSummary":
        unknown = set(payload) - set(cls._KEYS)
        if unknown:
            raise ConfigError(f"unknown percentile keys: {sorted(unknown)}")
        missing = set(cls._KEYS) - set(payload)
        if missing:
            # Silent zero-fill would read a truncated payload as real
            # zero latencies; a saved block always carries all five.
            raise ConfigError(
                f"missing percentile keys: {sorted(missing)}")
        return cls(**{key: float(payload[key]) for key in cls._KEYS})

    def to_dict(self) -> dict[str, float]:
        """JSON payload in the fixed ``p50 .. max`` key order."""
        return {key: getattr(self, key) for key in self._KEYS}


@dataclass
class RequestRecord:
    """Lifecycle timestamps of one request through the engine."""

    request: Request
    admitted_s: float | None = None
    first_token_s: float | None = None
    finished_s: float | None = None

    @property
    def completed(self) -> bool:
        return self.finished_s is not None

    @property
    def ttft_s(self) -> float:
        if self.first_token_s is None:
            raise ConfigError(
                f"request {self.request.rid} produced no token")
        return self.first_token_s - self.request.arrival_s

    @property
    def queueing_s(self) -> float:
        if self.admitted_s is None:
            raise ConfigError(f"request {self.request.rid} never admitted")
        return self.admitted_s - self.request.arrival_s

    @property
    def tpot_s(self) -> float:
        """Decode pacing; 0 for single-token outputs."""
        if self.finished_s is None or self.first_token_s is None:
            raise ConfigError(f"request {self.request.rid} unfinished")
        produced = self.request.output_tokens - 1
        if produced <= 0:
            return 0.0
        return (self.finished_s - self.first_token_s) / produced


@dataclass(frozen=True)
class ServeReport:
    """One engine's result under one trace."""

    engine: str
    model: str
    gpu: str
    batcher: str
    num_requests: int
    completed: int
    duration_s: float
    steps: int
    qps_sustained: float
    output_tokens_per_s: float
    ttft_s: PercentileSummary
    tpot_s: PercentileSummary
    queueing_s: PercentileSummary
    queue_depth: PercentileSummary
    batch_tokens: PercentileSummary
    max_concurrency: int
    peak_memory_bytes: float
    peak_reserved_bytes: float = 0.0
    preemptions: int = 0
    block_utilisation: PercentileSummary = field(
        default_factory=PercentileSummary.zero)
    cluster: dict[str, object] | None = None
    #: Auto-dispatch section (``engine="auto"`` runs only): which fixed
    #: engine the cost-driven selector picked per serving phase.
    auto: dict[str, object] | None = None
    #: Per-tenant section (multi-tenant runs only): one block per
    #: tenant with TTFT/TPOT percentiles, SLO attainment, admission
    #: and preemption counts.  ``None`` on single-tenant runs so their
    #: reports stay byte-identical to the pre-tenant format.
    tenants: dict[str, object] | None = None
    #: Per-pool section (disaggregated runs only): one block per pool
    #: with its role/device identity, step and request counts, and the
    #: phase latencies served there (TTFT on prefill-capable pools,
    #: TPOT on decode-capable ones).  ``None`` on colocated runs so
    #: their reports stay byte-identical to the pre-disagg format.
    pools: dict[str, object] | None = None
    #: KV-transfer section (disaggregated runs only): the inter-pool
    #: link, migration counts, bytes moved and the per-request
    #: transfer-seconds distribution.  ``None`` on colocated runs.
    transfer: dict[str, object] | None = None

    def to_dict(self) -> dict[str, object]:
        """JSON-ready payload (plain types only, stable key order).

        The ``cluster`` section (parallel plan, link, placement and
        communication shares) appears only for multi-device runs, and
        the ``tenants`` section only when tenants were declared, so
        single-GPU single-tenant reports stay byte-identical to the
        pre-cluster / pre-tenant format.
        """
        return {
            "engine": self.engine,
            "model": self.model,
            "gpu": self.gpu,
            "batcher": self.batcher,
            "num_requests": self.num_requests,
            "completed": self.completed,
            "duration_s": self.duration_s,
            "steps": self.steps,
            "qps_sustained": self.qps_sustained,
            "output_tokens_per_s": self.output_tokens_per_s,
            "ttft_s": self.ttft_s.to_dict(),
            "tpot_s": self.tpot_s.to_dict(),
            "queueing_s": self.queueing_s.to_dict(),
            "queue_depth": self.queue_depth.to_dict(),
            "batch_tokens": self.batch_tokens.to_dict(),
            "max_concurrency": self.max_concurrency,
            "peak_memory_bytes": self.peak_memory_bytes,
            "peak_reserved_bytes": self.peak_reserved_bytes,
            "preemptions": self.preemptions,
            "block_utilisation": self.block_utilisation.to_dict(),
            **({"cluster": dict(self.cluster)}
               if self.cluster is not None else {}),
            **({"auto": dict(self.auto)}
               if self.auto is not None else {}),
            **({"tenants": dict(self.tenants)}
               if self.tenants is not None else {}),
            **({"pools": dict(self.pools)}
               if self.pools is not None else {}),
            **({"transfer": dict(self.transfer)}
               if self.transfer is not None else {}),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ServeReport":
        """Rebuild a typed report from a saved ``to_dict()`` payload."""
        data = dict(payload)
        for key in ("ttft_s", "tpot_s", "queueing_s", "queue_depth",
                    "batch_tokens", "block_utilisation"):
            block = data.get(key)
            if isinstance(block, dict):
                data[key] = PercentileSummary.from_dict(block)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown report keys: {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]

    def summary_row(self) -> list[object]:
        """One table row for ``bench/report.render_table``."""
        return [self.engine, self.batcher, self.completed,
                f"{self.qps_sustained:.2f}",
                f"{self.output_tokens_per_s:.0f}",
                f"{self.ttft_s.p50 * 1e3:.1f}",
                f"{self.ttft_s.p99 * 1e3:.1f}",
                f"{self.tpot_s.p50 * 1e3:.2f}",
                f"{self.queue_depth.max:.0f}",
                self.max_concurrency,
                self.preemptions]


REPORT_HEADERS = ["engine", "batcher", "done", "qps", "tok/s",
                  "ttft p50 ms", "ttft p99 ms", "tpot p50 ms",
                  "queue max", "max conc", "preempt"]


@dataclass
class StepSample:
    """Per-step observability sample taken by the event loop.

    ``live_bytes`` is the instantaneous static + KV footprint;
    ``reserved_bytes`` is what the admission policy actually charged
    (peak reservations or live blocks), whose post-static fraction of
    the pool is ``pool_util``.
    """

    clock_s: float
    queue_depth: int
    running: int
    step_tokens: int
    live_bytes: float = 0.0
    reserved_bytes: float = 0.0
    pool_util: float = 0.0
    comm_s: float = 0.0
    step_s: float = 0.0


@dataclass
class MetricsCollector:
    """Accumulates per-step samples, finished records and evictions."""

    samples: list[StepSample] = field(default_factory=list)
    records: list[RequestRecord] = field(default_factory=list)
    preemptions: int = 0
    preemptions_by_tenant: dict[str, int] = field(default_factory=dict)
    rejected_by_tenant: dict[str, int] = field(default_factory=dict)

    def observe(self, sample: StepSample) -> None:
        self.samples.append(sample)

    def finish(self, record: RequestRecord) -> None:
        self.records.append(record)

    def preempt(self, tenant: str = DEFAULT_TENANT) -> None:
        """Count one eviction of a running request back to the queue."""
        self.preemptions += 1
        self.preemptions_by_tenant[tenant] = \
            self.preemptions_by_tenant.get(tenant, 0) + 1

    def reject(self, tenant: str = DEFAULT_TENANT) -> None:
        """Count one arrival rejected by its tenant's rate limit."""
        self.rejected_by_tenant[tenant] = \
            self.rejected_by_tenant.get(tenant, 0) + 1


def _sample_stats(samples: "Sequence[StepSample]") -> dict[str, object]:
    """Per-step aggregates of the report (zeroed when no step was ever
    observed)."""
    return {
        "queue_depth": PercentileSummary.from_values(
            [float(s.queue_depth) for s in samples]),
        "batch_tokens": PercentileSummary.from_values(
            [float(s.step_tokens) for s in samples]),
        "max_concurrency": max((s.running for s in samples), default=0),
        "peak_memory_bytes": max((s.live_bytes for s in samples),
                                 default=0.0),
        "peak_reserved_bytes": max((s.reserved_bytes for s in samples),
                                   default=0.0),
        "block_utilisation": PercentileSummary.from_values(
            [s.pool_util for s in samples]),
    }


def _attainment(hits: int, offered: int) -> float:
    """SLO attainment over *offered* requests: a request that was
    rejected, starved or cut off by the horizon missed its SLO."""
    return hits / offered if offered else 0.0


def tenant_sections(tenants: "Sequence[TenantSpec]",
                    records: "Collection[RequestRecord]",
                    rejected: "dict[str, int] | None" = None,
                    preempted: "dict[str, int] | None" = None
                    ) -> dict[str, object]:
    """Per-tenant report blocks: one per declared tenant (in
    declaration order) plus any extra tenant the trace carried.

    A tenant with zero completed requests gets the all-zero block of
    :meth:`PercentileSummary.from_values` over no values, never a
    percentile error.  SLO attainment is the fraction
    of the tenant's *offered* requests that met the objective
    (``None`` when the tenant declared no objective).
    """
    rejected = rejected or {}
    preempted = preempted or {}
    declared = {t.name: t for t in tenants}
    extras = sorted({r.request.tenant for r in records} - set(declared))
    sections: dict[str, object] = {}
    for name in list(declared) + extras:
        spec = declared.get(name)
        recs = [r for r in records if r.request.tenant == name]
        done = [r for r in recs if r.completed]
        first = [r for r in recs if r.first_token_s is not None]
        offered = len(recs)
        ttft = PercentileSummary.from_values([r.ttft_s for r in first])
        tpot = PercentileSummary.from_values([r.tpot_s for r in done])
        ttft_slo = spec.ttft_slo_s if spec is not None else None
        tpot_slo = spec.tpot_slo_s if spec is not None else None
        sections[name] = {
            "priority": spec.priority if spec is not None else 0,
            "requests": offered,
            "admitted": sum(1 for r in recs
                            if r.admitted_s is not None),
            "completed": len(done),
            "rejected": rejected.get(name, 0),
            "preemptions": preempted.get(name, 0),
            "ttft_s": ttft.to_dict(),
            "tpot_s": tpot.to_dict(),
            "ttft_slo_s": ttft_slo,
            "tpot_slo_s": tpot_slo,
            "ttft_attainment": (
                _attainment(sum(1 for r in first
                                if r.ttft_s <= ttft_slo), offered)
                if ttft_slo is not None else None),
            "tpot_attainment": (
                _attainment(sum(1 for r in done
                                if r.tpot_s <= tpot_slo), offered)
                if tpot_slo is not None else None),
        }
    return sections


def summarise(collector: MetricsCollector, *, engine: str, model: str,
              gpu: str, batcher: str, num_requests: int,
              cluster: dict[str, object] | None = None,
              auto: dict[str, object] | None = None,
              tenants: "Sequence[TenantSpec] | None" = None,
              all_records: "Collection[RequestRecord] | None" = None,
              pools: dict[str, object] | None = None,
              transfer: dict[str, object] | None = None
              ) -> ServeReport:
    """Fold a run's samples and records into a :class:`ServeReport`.

    Every run takes one path: a run that completed nothing (a short
    horizon, a trace cut off mid-flight) reports all-zero latency
    blocks and rates, not a :func:`percentile` error.  ``cluster``
    (the multi-device section) and ``auto`` (the auto-dispatch
    section) are attached verbatim when present.  ``tenants`` (with
    ``all_records``, every request's record whether finished or not)
    attaches the per-tenant section; ``None`` keeps the single-tenant
    report shape.  ``pools`` / ``transfer`` are the
    disaggregated-serving sections (:mod:`repro.serve.disagg`),
    attached verbatim when present.
    """
    done = [r for r in collector.records if r.completed]
    samples = collector.samples
    if cluster is not None and samples:
        cluster = dict(cluster)
        cluster["comm_fraction_per_step"] = PercentileSummary.from_values(
            [s.comm_s / s.step_s if s.step_s > 0 else 0.0
             for s in samples]).to_dict()
    tenant_blocks = None
    if tenants is not None:
        tenant_blocks = tenant_sections(
            tenants, all_records if all_records is not None
            else collector.records,
            rejected=collector.rejected_by_tenant,
            preempted=collector.preemptions_by_tenant)
    if done and not samples:
        raise ConfigError("completed requests but no observed steps")
    duration_s = samples[-1].clock_s if samples else 0.0
    qps_sustained = output_tokens_per_s = 0.0
    if done:
        first_arrival_s = min(r.request.arrival_s for r in done)
        last_finish_s = max(r.finished_s for r in done)    # type: ignore
        duration_s = max(last_finish_s - first_arrival_s, CLOCK_EPS)
        qps_sustained = len(done) / duration_s
        output_tokens_per_s = (sum(r.request.output_tokens for r in done)
                               / duration_s)
    return ServeReport(
        engine=engine,
        model=model,
        gpu=gpu,
        batcher=batcher,
        num_requests=num_requests,
        completed=len(done),
        duration_s=duration_s,
        steps=len(samples),
        qps_sustained=qps_sustained,
        output_tokens_per_s=output_tokens_per_s,
        ttft_s=PercentileSummary.from_values([r.ttft_s for r in done]),
        tpot_s=PercentileSummary.from_values([r.tpot_s for r in done]),
        queueing_s=PercentileSummary.from_values(
            [r.queueing_s for r in done]),
        preemptions=collector.preemptions,
        cluster=cluster,
        auto=auto,
        tenants=tenant_blocks,
        pools=pools,
        transfer=transfer,
        **_sample_stats(samples),  # type: ignore[arg-type]
    )


def sim_throughput(num_requests: int, steps: int,
                   wall_s: float) -> dict[str, float]:
    """Simulator throughput: simulated requests and steps per *wall*
    second.

    This measures the simulator itself, not the modelled server —
    ``repro bench sim`` feeds it a timed replay to build the
    ``BENCH_sim.json`` trajectory.  A non-positive wall clock (a
    too-coarse timer on a tiny run) reports zero rather than dividing
    by it.
    """
    if wall_s <= 0:
        return {"wall_s": wall_s, "requests_per_s": 0.0,
                "steps_per_s": 0.0}
    return {"wall_s": wall_s,
            "requests_per_s": num_requests / wall_s,
            "steps_per_s": steps / wall_s}
