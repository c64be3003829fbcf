"""Multi-tenant traffic: per-tenant classes, SLOs and rate limits.

A :class:`TenantSpec` describes one request class sharing the server:
its scheduling ``priority``, its latency objectives (``ttft_slo_s`` /
``tpot_slo_s``), an optional token-bucket ``token_rate_limit`` and its
``share`` of the arrival stream.  :func:`assign_tenants` stamps a
generated single-tenant trace with tenant identities (and per-tenant
length overrides) deterministically, from a stream derived off the
trace seed — the base arrival process is untouched, so a tenanted
trace has byte-identical arrival times to its untenanted twin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Mapping, Sequence

from repro.errors import ConfigError
from repro.utils.rng import new_rng
from repro.workloads.traces import (
    Request,
    _sample_lengths,
    _sample_output_lengths,
)

#: Mix-in constant for the tenant-assignment RNG stream: tenant draws
#: must not perturb the base generator's arrival/length draws, so they
#: come from a second generator seeded off the trace seed.
_TENANT_STREAM = 0x7E4A17
_SEED_SPAN = 2 ** 63


def _tenant_rng(seed: int | None):
    base = 0 if seed is None else int(seed)
    return new_rng((base * 0x9E3779B1 + _TENANT_STREAM) % _SEED_SPAN)


@dataclass(frozen=True)
class TenantSpec:
    """One request class sharing a served model.

    Attributes:
        name: Tenant identifier carried by its requests.
        priority: Scheduling priority (higher wins) under the
            ``priority_slack`` policy; ignored by ``youngest_first``.
        share: Relative weight of this tenant in the arrival stream
            (normalised over all declared tenants).
        ttft_slo_s: Time-to-first-token objective, seconds.
        tpot_slo_s: Time-per-output-token objective, seconds.
        token_rate_limit: Token-bucket refill rate, tokens/second;
            ``None`` admits without throttling.
        burst_tokens: Token-bucket capacity; defaults to one second of
            refill.  A request larger than the capacity can never be
            admitted and is rejected on arrival.
        prompt_tokens: Optional per-tenant mean prompt length override.
        output_tokens: Optional per-tenant mean output length override.
    """

    name: str
    priority: int = 0
    share: float = 1.0
    ttft_slo_s: float | None = None
    tpot_slo_s: float | None = None
    token_rate_limit: float | None = None
    burst_tokens: int | None = None
    prompt_tokens: int | None = None
    output_tokens: int | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("name: must be a non-empty string")
        if (not isinstance(self.priority, int)
                or isinstance(self.priority, bool)):
            raise ConfigError(
                f"priority: must be an integer, got {self.priority!r}")
        self._positive_number("share", self.share)
        for field_name in ("ttft_slo_s", "tpot_slo_s",
                           "token_rate_limit"):
            value = getattr(self, field_name)
            if value is not None:
                self._positive_number(field_name, value)
        for field_name in ("burst_tokens", "prompt_tokens",
                           "output_tokens"):
            value = getattr(self, field_name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(
                    f"{field_name}: must be an integer, got {value!r}")
            if value <= 0:
                raise ConfigError(f"{field_name}: must be > 0")
        if self.burst_tokens is not None and self.token_rate_limit is None:
            raise ConfigError(
                "burst_tokens: requires token_rate_limit")

    @staticmethod
    def _positive_number(field_name: str, value: object) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(
                f"{field_name}: must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(
                f"{field_name}: must be finite, got {value!r}")
        if value <= 0:
            raise ConfigError(f"{field_name}: must be > 0")

    @property
    def bucket_capacity(self) -> float | None:
        """Token-bucket capacity: explicit, or one second of refill."""
        if self.token_rate_limit is None:
            return None
        if self.burst_tokens is not None:
            return float(self.burst_tokens)
        return float(self.token_rate_limit)

    def to_dict(self) -> dict[str, Any]:
        """Plain-type payload; :meth:`from_dict` inverts it exactly."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TenantSpec":
        """Build from a mapping, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise ConfigError(f"expected a mapping, got "
                              f"{type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                f"{unknown[0]}: unknown field (known: "
                f"{', '.join(sorted(known))})")
        return cls(**dict(payload))


def validate_tenants(tenants: Sequence[TenantSpec]) -> None:
    """Cross-tenant invariants: unique names."""
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ConfigError(f"duplicate tenant name {dup!r}")


def assign_tenants(trace: Sequence[Request],
                   tenants: Sequence[TenantSpec],
                   seed: int | None = None,
                   jitter: float = 0.5,
                   eos_sampling: bool = False) -> list[Request]:
    """Stamp a trace with tenant identities, deterministically.

    Each request draws its tenant by normalised ``share`` from an RNG
    stream derived off ``seed`` (the base trace's arrivals and lengths
    are untouched).  Tenants that override ``prompt_tokens`` /
    ``output_tokens`` re-draw those lengths from the same stream, so
    per-tenant length skew composes with any arrival shape.
    """
    if not tenants:
        return list(trace)
    validate_tenants(tenants)
    rng = _tenant_rng(seed)
    total_share = sum(t.share for t in tenants)
    probs = [t.share / total_share for t in tenants]
    picks = rng.choice(len(tenants), size=len(trace), p=probs)
    out: list[Request] = []
    for req, pick in zip(trace, picks):
        tenant = tenants[int(pick)]
        prompt_tokens = req.prompt_tokens
        output_tokens = req.output_tokens
        if tenant.prompt_tokens is not None:
            prompt_tokens = int(_sample_lengths(
                rng, 1, tenant.prompt_tokens, jitter)[0])
        if tenant.output_tokens is not None:
            output_tokens = int(_sample_output_lengths(
                rng, 1, tenant.output_tokens, jitter, eos_sampling)[0])
        out.append(Request(rid=req.rid, arrival_s=req.arrival_s,
                           prompt_tokens=prompt_tokens,
                           output_tokens=output_tokens,
                           tenant=tenant.name))
    return out
