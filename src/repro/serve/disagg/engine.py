"""Disaggregated prefill/decode serving engine.

N pools share one event calendar, one clock, one arrival stream and
one metrics collector; each :class:`~repro.serve.engine.Pool` has its
own :class:`~repro.context.ExecutionContext` (engine, device, parallel
plan), batcher, :class:`~repro.serve.costs.StepPricer` and memory
ledger.  Pools run the same :class:`~repro.serve.engine.ServingLoop` as
colocated serving, where what colocated serving never needs fires:

* **Routing** — a :class:`~repro.serve.disagg.routers.RouterPolicy`
  assigns each arrival to a prefill-capable pool, and each finished
  prompt to a decode-capable pool (the KV-transfer destination).
  Candidates are always presented in stable name order, so equal-load
  ties resolve by ``(pool_name, rid)`` and a run is byte-reproducible
  under any executor layout.  A phase with one candidate pool needs
  no decision.
* **KV migration** — when a prompt finishes prefilling on a pool that
  does not serve decode, its KV state (all layers of the context at
  prefill completion) crosses the inter-pool link: the destination
  ledger is charged at transfer start, a
  :class:`~repro.serve.events.KVTransfer` fires after the link's
  alpha-beta cost, and its handler releases the source ledger and
  starts the request decoding on the destination.  During the window
  the request is resident on *both* ledgers; the sim-sanitizer's
  conservation invariant checks that the bytes released at the source
  equal the bytes charged at the destination and that residency is
  single-pool once the transfer completes.
* **Cross-pool preemption** — a decode-pool eviction cannot recompute
  locally (the pool never prefills); the victim is re-routed to a
  prefill-capable pool for recompute, keeping vLLM-style recompute
  semantics end to end.

What this engine adds of its own is the report: the ``pools`` and
``transfer`` sections, and the cluster's identity in place of one GPU.
A degenerate cluster (one pool serving both phases) never routes or
migrates; the deployment layer serves it through the colocated
:class:`~repro.serve.engine.ServingEngine`, so its report is
byte-identical to a pool-free config.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigError
from repro.hw.interconnect import ClusterSpec, LinkSpec, get_link
from repro.serve.disagg.pools import validate_pools
from repro.serve.disagg.routers import make_router
from repro.serve.engine import Pool, ServingLoop
from repro.serve.metrics import PercentileSummary, ServeReport, summarise
from repro.workloads.tenants import TenantSpec
from repro.workloads.traces import Request


class DisaggServingEngine:
    """Event-calendar server over disaggregated prefill/decode pools.

    Construction takes the :class:`~repro.serve.engine.Pool` of every
    pool (built by the deployment layer with the pool's
    context/batcher overrides), the inter-pool transfer ``link`` and
    the run-level settings: ``tenants``, ``scheduler`` and
    ``horizon_s`` as on :class:`~repro.serve.engine.ServingEngine`,
    and the ``router`` registry name (a fresh router serves each run).
    """

    def __init__(self, pools: Sequence[Pool], *,
                 link: "LinkSpec | str" = "pcie4",
                 tenants: Sequence[TenantSpec] = (),
                 scheduler: str = "youngest_first",
                 router: str = "round_robin",
                 horizon_s: float | None = None) -> None:
        self.pools = tuple(pools)
        validate_pools(self.pools)
        # One model, KV page layout and stack depth on every pool is
        # what makes a transferred request's KV bytes exact.
        first = self.pools[0]
        for pool in self.pools[1:]:
            for what, value, expected in (
                    ("model", pool.ctx.config.name, first.ctx.config.name),
                    ("page_size", pool.page_size, first.page_size),
                    ("num_layers", pool.layers, first.layers)):
                if value != expected:
                    raise ConfigError(
                        f"pool {pool.name!r} {what} {value!r} differs "
                        f"from pool {first.name!r}'s {expected!r}; all "
                        f"pools must share it")
        self.link = get_link(link) if isinstance(link, str) else link
        make_router(router)            # fail fast on unknown names
        self.router = router
        self._loop = ServingLoop(tenants, scheduler, horizon_s)
        self.tenants = self._loop.tenants
        gpus = []
        for pool in self.pools:
            gpus.extend([pool.ctx.spec] * pool.ctx.parallel.num_devices)
        self._gpu = ClusterSpec(gpus=tuple(gpus), link=self.link).describe()

    def run(self, trace: Sequence[Request],
            max_steps: int = 1_000_000) -> ServeReport:
        """Serve ``trace`` across the pools and summarise the run."""
        loop = self._loop
        loop.run(self.pools, trace, router=make_router(self.router),
                 link=self.link, max_steps=max_steps)
        first = self.pools[0]
        return summarise(
            loop.collector, engine=first.ctx.engine.name,
            model=first.ctx.config.name, gpu=self._gpu,
            batcher=first.batcher.name, num_requests=len(trace),
            auto=loop.auto, tenants=self.tenants or None,
            all_records=loop.records.values(),
            pools=self._pools_report(), transfer=self._transfer_report())

    # ------------------------------------------------------------------
    # Report sections
    # ------------------------------------------------------------------
    def _pools_report(self) -> dict[str, object]:
        """One block per pool, in declaration order."""
        section: dict[str, object] = {}
        for pool in self.pools:
            block: dict[str, object] = {
                "role": pool.role,
                "gpu": pool.ctx.spec.name,
                "engine": pool.ctx.engine.name,
                "batcher": pool.batcher.name,
                "devices": pool.ctx.parallel.num_devices,
                "steps": pool.steps,
                "busy_s": pool.busy_s,
                "comm_s": pool.comm_s,
                "requests_prefilled": pool.prefills,
                "requests_finished": pool.finished,
                "peak_pool_utilisation": pool.peak_util,
            }
            if pool.serves_prefill:
                block["ttft_s"] = PercentileSummary.from_values(
                    pool.ttft_values).to_dict()
            if pool.serves_decode:
                block["tpot_s"] = PercentileSummary.from_values(
                    pool.tpot_values).to_dict()
            section[pool.name] = block
        return section

    def _transfer_report(self) -> dict[str, object]:
        """KV-transfer section of the last run: link, totals and
        per-request seconds.

        ``per_request_s`` maps each migrated request id to its total
        transfer seconds (summed over recompute re-migrations), in
        rid order.
        """
        loop = self._loop
        by_rid = loop.transfer_s_by_rid
        rids = sorted(by_rid)
        return {
            "link": self.link.name,
            "transfers": loop.transfers,
            "requests": len(by_rid),
            "bytes_total": loop.transfer_bytes,
            "seconds_total": loop.transfer_s,
            "seconds": PercentileSummary.from_values(
                [by_rid[rid] for rid in rids]).to_dict(),
            "per_request_s": {str(rid): by_rid[rid] for rid in rids},
        }
