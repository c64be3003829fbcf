"""Disaggregated prefill/decode serving over heterogeneous GPU pools.

The subsystem splits a deployment into named pools — each with its own
engine, device, parallel plan, batcher and memory ledger — routed by a
pluggable :class:`RouterPolicy` and joined by KV-block transfers over
the cluster's inter-pool link.  See ``DESIGN.md`` ("Disaggregated
serving") for the full model.
"""

from repro.serve.disagg.engine import DisaggServingEngine
from repro.serve.disagg.pools import (
    POOL_ROLES,
    DisaggCluster,
    PoolSpec,
    validate_pools,
)
from repro.serve.disagg.routers import (
    PHASES,
    ROUTERS,
    RouterPolicy,
    make_router,
    register_router,
    router_names,
)

__all__ = [
    "DisaggCluster",
    "DisaggServingEngine",
    "PHASES",
    "POOL_ROLES",
    "PoolSpec",
    "ROUTERS",
    "RouterPolicy",
    "make_router",
    "register_router",
    "router_names",
    "validate_pools",
]
