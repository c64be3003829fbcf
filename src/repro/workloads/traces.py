"""Serving requests and the base arrival-trace generators.

A :class:`Request` is the unit of admission: a prompt to prefill and a
known number of tokens to decode.  By default output lengths are drawn
from a narrow uniform band so engines see near-identical work; with
``eos_sampling=True`` they are geometric — each decode step "emits EOS"
with probability ``1/output_tokens``, the memoryless stop real
deployments exhibit — while staying deterministic under the trace seed,
so runs remain reproducible and comparable across engines.  Three trace
shapes cover the evaluation space:

* :func:`poisson_trace` — memoryless arrivals at a target QPS, the
  standard open-loop serving benchmark;
* :func:`bursty_trace`  — on/off modulated arrivals with the same mean
  rate, the workload where continuous batching's incremental admission
  beats static batching's convoy effect;
* :func:`replay_trace`  — replay recorded ``(arrival, prompt, output)``
  triples, e.g. from a production log.

The non-stationary shapes (diurnal, flash-crowd) build on these in
:mod:`repro.workloads.generators`; every shape is discoverable through
the :data:`repro.workloads.WORKLOADS` registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import new_rng

#: Tenant name of requests that never declared one: every pre-tenant
#: trace (and every generator called without tenant assignment) yields
#: requests of this single implicit tenant.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class Request:
    """One inference request in an arrival trace."""

    rid: int
    arrival_s: float
    prompt_tokens: int
    output_tokens: int
    tenant: str = DEFAULT_TENANT

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ConfigError(f"request {self.rid}: negative arrival time")
        if self.prompt_tokens <= 0:
            raise ConfigError(f"request {self.rid}: empty prompt")
        if self.output_tokens <= 0:
            raise ConfigError(f"request {self.rid}: no output requested")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ConfigError(f"request {self.rid}: tenant must be a "
                              f"non-empty string")

    @property
    def total_tokens(self) -> int:
        """Peak KV-cache length: prompt plus every generated token."""
        return self.prompt_tokens + self.output_tokens


def _sample_lengths(rng: np.random.Generator, count: int, mean: int,
                    jitter: float) -> np.ndarray:
    """Integer lengths around ``mean`` with +/- ``jitter`` spread."""
    if mean <= 0:
        raise ConfigError("mean token length must be positive")
    if not 0.0 <= jitter < 1.0:
        raise ConfigError("jitter must be in [0, 1)")
    low = max(1, int(round(mean * (1.0 - jitter))))
    high = max(low + 1, int(round(mean * (1.0 + jitter))) + 1)
    return rng.integers(low, high, size=count)


def _sample_output_lengths(rng: np.random.Generator, count: int,
                           mean: int, jitter: float,
                           eos_sampling: bool) -> np.ndarray:
    """Output lengths: uniform band, or EOS-geometric when flagged.

    Geometric with ``p = 1/mean`` models a memoryless per-token EOS
    probability (support >= 1, mean = ``mean``), seeded by the trace
    RNG so runs stay deterministic.
    """
    if not eos_sampling:
        return _sample_lengths(rng, count, mean, jitter)
    if mean <= 0:
        raise ConfigError("mean output length must be positive")
    return rng.geometric(1.0 / mean, size=count)


def _build(arrivals: np.ndarray, prompts: np.ndarray,
           outputs: np.ndarray) -> list[Request]:
    return [Request(rid=i, arrival_s=float(t), prompt_tokens=int(p),
                    output_tokens=int(o))
            for i, (t, p, o) in enumerate(zip(arrivals, prompts, outputs))]


def poisson_trace(num_requests: int, rate_qps: float,
                  prompt_tokens: int = 512, output_tokens: int = 64,
                  jitter: float = 0.5,
                  seed: int | np.random.Generator | None = None,
                  eos_sampling: bool = False) -> list[Request]:
    """Open-loop Poisson arrivals at ``rate_qps`` requests/second.

    With ``eos_sampling`` the output lengths are geometric with mean
    ``output_tokens`` (per-token EOS probability) instead of a uniform
    jitter band.
    """
    if num_requests <= 0:
        raise ConfigError("num_requests must be positive")
    if rate_qps <= 0:
        raise ConfigError("rate_qps must be positive")
    rng = new_rng(seed)
    gaps = rng.exponential(1.0 / rate_qps, size=num_requests)
    arrivals = np.cumsum(gaps) - gaps[0]          # first request at t=0
    prompts = _sample_lengths(rng, num_requests, prompt_tokens, jitter)
    outputs = _sample_output_lengths(rng, num_requests, output_tokens,
                                     jitter, eos_sampling)
    return _build(arrivals, prompts, outputs)


def bursty_trace(num_requests: int, rate_qps: float,
                 burst_factor: float = 8.0, burst_len: int = 16,
                 prompt_tokens: int = 512, output_tokens: int = 64,
                 jitter: float = 0.5,
                 seed: int | np.random.Generator | None = None,
                 eos_sampling: bool = False) -> list[Request]:
    """On/off bursts with mean rate ``rate_qps``.

    Requests arrive in bursts of ``burst_len`` at ``burst_factor`` times
    the mean rate, separated by idle gaps sized so the long-run rate
    stays ``rate_qps`` — the workload that exposes the convoy effect of
    static batching.  ``eos_sampling`` switches output lengths to the
    geometric EOS model (see :func:`poisson_trace`).
    """
    if num_requests <= 0:
        raise ConfigError("num_requests must be positive")
    if rate_qps <= 0:
        raise ConfigError("rate_qps must be positive")
    if burst_factor <= 1.0:
        raise ConfigError("burst_factor must exceed 1")
    if burst_len <= 0:
        raise ConfigError("burst_len must be positive")
    rng = new_rng(seed)
    fast = rate_qps * burst_factor
    # Idle gap per burst restores the mean: a burst of n requests takes
    # n/fast seconds but should occupy n/rate on average.
    idle = burst_len / rate_qps - burst_len / fast
    arrivals = np.empty(num_requests)
    clock = 0.0
    for i in range(num_requests):
        if i > 0 and i % burst_len == 0:
            clock += idle * float(rng.uniform(0.5, 1.5))
        clock += float(rng.exponential(1.0 / fast))
        arrivals[i] = clock
    arrivals -= arrivals[0]
    prompts = _sample_lengths(rng, num_requests, prompt_tokens, jitter)
    outputs = _sample_output_lengths(rng, num_requests, output_tokens,
                                     jitter, eos_sampling)
    return _build(arrivals, prompts, outputs)


def replay_trace(records: Iterable[Mapping[str, float] | Sequence[float]]
                 ) -> list[Request]:
    """Build a trace from recorded triples.

    Each record is either a mapping with ``arrival_s`` /
    ``prompt_tokens`` / ``output_tokens`` keys (plus an optional
    ``tenant``) or a positional ``(arrival_s, prompt_tokens,
    output_tokens)`` sequence.  Records are sorted by arrival time and
    re-numbered.
    """
    parsed: list[tuple[float, int, int, str]] = []
    for record in records:
        if isinstance(record, Mapping):
            parsed.append((float(record["arrival_s"]),
                           int(record["prompt_tokens"]),
                           int(record["output_tokens"]),
                           str(record.get("tenant", DEFAULT_TENANT))))
        else:
            arrival, prompt, output = record
            parsed.append((float(arrival), int(prompt), int(output),
                           DEFAULT_TENANT))
    if not parsed:
        raise ConfigError("replay trace is empty")
    parsed.sort(key=lambda rec: rec[0])
    return [Request(rid=i, arrival_s=t, prompt_tokens=p, output_tokens=o,
                    tenant=tenant)
            for i, (t, p, o, tenant) in enumerate(parsed)]


def validate_trace(trace: Sequence[Request]) -> None:
    """Check trace invariants: sorted arrivals, unique ids."""
    if not trace:
        raise ConfigError("trace is empty")
    ids = {req.rid for req in trace}
    if len(ids) != len(trace):
        raise ConfigError("duplicate request ids in trace")
    for prev, cur in zip(trace, trace[1:]):
        if cur.arrival_s < prev.arrival_s:
            raise ConfigError("trace arrivals must be non-decreasing")
