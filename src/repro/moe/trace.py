"""Trace-driven routing workloads: skew, capacity and padding studies.

The paper's benchmarks assume near-uniform routing.  Real routers are
skewed — a few experts attract a disproportionate share of tokens — and
skew interacts with exactly the mechanisms Samoyeds optimises:

* per-expert **padding** to the kernel's n-tile wastes more compute when
  many experts receive few tokens;
* **capacity factors** (dropping tokens beyond a per-expert budget)
  trade accuracy for balance;
* load **imbalance** stretches the critical path of per-expert kernel
  segments.

This module generates Zipf-skewed routing plans, measures those effects,
and feeds the `routing-skew` ablation bench — reproducing the §6.2
padding discussion quantitatively and extending it beyond the paper's
uniform setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError
from repro.moe.router import RoutingPlan
from repro.utils.rng import new_rng


def validate_skew(skew: float) -> float:
    """Check a Zipf routing-skew value; returns it for chaining.

    Shared by the trace generators here and the workload specs in
    :mod:`repro.api`, so every layer rejects the same invalid inputs.
    """
    if not isinstance(skew, (int, float)) or isinstance(skew, bool):
        raise RoutingError(f"skew must be a number, got {skew!r}")
    if not 0 <= skew < math.inf:
        raise RoutingError(f"skew must be finite and non-negative, "
                           f"got {skew!r}")
    return float(skew)


def zipf_expert_popularity(num_experts: int, skew: float) -> np.ndarray:
    """Normalised expert-popularity vector ~ rank^-skew.

    ``skew = 0`` is uniform; ``skew ~ 1`` mirrors measured MoE routing
    distributions.
    """
    validate_skew(skew)
    ranks = np.arange(1, num_experts + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    return weights / weights.sum()


def skewed_plan(num_tokens: int, num_experts: int, top_k: int,
                skew: float = 0.0,
                seed: int | np.random.Generator | None = None
                ) -> RoutingPlan:
    """A routing plan whose expert loads follow a Zipf profile."""
    if top_k > num_experts:
        raise RoutingError("top_k cannot exceed num_experts")
    rng = new_rng(seed)
    popularity = zipf_expert_popularity(num_experts, skew)
    ids_per_expert: list[list[int]] = [[] for _ in range(num_experts)]
    weights_per_expert: list[list[float]] = [[] for _ in range(num_experts)]
    for token in range(num_tokens):
        chosen = rng.choice(num_experts, size=top_k, replace=False,
                            p=popularity)
        gates = rng.random(top_k)
        gates /= gates.sum()
        for expert, gate in zip(chosen, gates):
            ids_per_expert[expert].append(token)
            weights_per_expert[expert].append(float(gate))
    plan = RoutingPlan(
        num_tokens=num_tokens,
        top_k=top_k,
        expert_token_ids=tuple(np.array(ids, dtype=np.int64)
                               for ids in ids_per_expert),
        expert_gate_weights=tuple(np.array(w) for w in weights_per_expert),
    )
    plan.validate()
    return plan


@dataclass(frozen=True)
class PaddingReport:
    """Padding waste of one plan under one kernel tile size."""

    tile_n: int
    useful_tokens: int
    padded_tokens: int

    @property
    def waste_fraction(self) -> float:
        """Fraction of kernel columns computing padding zeros."""
        if self.padded_tokens == 0:
            return 0.0
        return 1.0 - self.useful_tokens / self.padded_tokens


def padding_report(plan: RoutingPlan, tile_n: int) -> PaddingReport:
    """Quantify §6.2's padding overhead for a concrete plan."""
    loads = plan.load()
    padded = int(sum(math.ceil(load / tile_n) * tile_n
                     for load in loads if load > 0))
    return PaddingReport(tile_n=tile_n,
                         useful_tokens=int(loads.sum()),
                         padded_tokens=padded)


@dataclass(frozen=True)
class CapacityReport:
    """Effect of a capacity factor on one plan."""

    capacity: int
    kept_tokens: int
    dropped_tokens: int

    @property
    def drop_fraction(self) -> float:
        total_tokens = self.kept_tokens + self.dropped_tokens
        return (self.dropped_tokens / total_tokens
                if total_tokens else 0.0)


def apply_capacity(plan: RoutingPlan, capacity_factor: float = 1.25
                   ) -> tuple[RoutingPlan, CapacityReport]:
    """Clamp each expert to ``capacity_factor x`` its fair share.

    Overflow token assignments are dropped (GShard-style), preserving
    routing order.  The returned plan no longer satisfies the exact
    top-k invariant, matching the semantics of capacity-limited systems.
    """
    if capacity_factor <= 0:
        raise RoutingError("capacity_factor must be positive")
    fair = plan.num_tokens * plan.top_k / plan.num_experts
    capacity = max(1, int(math.ceil(fair * capacity_factor)))
    kept_ids, kept_w = [], []
    dropped = 0
    for ids, weights in zip(plan.expert_token_ids,
                            plan.expert_gate_weights):
        kept_ids.append(ids[:capacity])
        kept_w.append(weights[:capacity])
        dropped += max(0, ids.size - capacity)
    clamped = RoutingPlan(num_tokens=plan.num_tokens, top_k=plan.top_k,
                          expert_token_ids=tuple(kept_ids),
                          expert_gate_weights=tuple(kept_w))
    kept = int(sum(ids.size for ids in kept_ids))
    return clamped, CapacityReport(capacity=capacity, kept_tokens=kept,
                                   dropped_tokens=dropped)


def critical_path_tokens(plan: RoutingPlan, tile_n: int) -> int:
    """Padded token count of the most loaded expert.

    With per-expert kernel segments the slowest expert bounds layer
    latency once parallelism is exhausted; skew stretches this directly.
    """
    loads = plan.load()
    if loads.size == 0:
        return 0
    worst = int(loads.max())
    return math.ceil(worst / tile_n) * tile_n
