"""SLO-aware scheduling: preemption order and per-tenant admission.

Two policy axes, both defaulting to the engine's historical behaviour:

**Preemption order** — when the paged allocator cannot back a token,
the engine evicts the policy's preferred victim, the resident that
``max(running, key=policy.victim_key(...))`` names:

* :class:`YoungestFirst` (default) keys on ``(arrival_s, rid)`` — the
  exact tuple the engine always used, so default runs stay
  byte-identical to the goldens;
* :class:`PrioritySlack` keys on ``(-priority, slack, arrival, rid)``:
  the victim is the lowest-priority request, ties broken by the most
  SLO slack remaining — the request that can best afford a recompute.
  The policy also *orders the waiting queue* by ``(-priority,
  arrival_s, rid)``, which is the main lever for high-priority TTFT
  attainment under overload.

Slack is the time left to the request's next deadline,
``deadline - clock``: the deadline is ``arrival + ttft_slo`` while
prefilling, ``first_token + tpot_slo * (output - 1)`` (the finish
deadline at SLO pace) once decoding; requests of tenants with no SLO
have infinite slack and are always preferred victims within their
priority class.

The engine never runs that scan.  ``victim_key`` and ``queue_key`` are
the reference definitions (the sim-sanitizer re-derives every pick and
checks every queue against them); the engine reads state kept in order
as residents and queues change:

* each pool's run keeps a :class:`ResidentIndex` the policy builds
  (:meth:`SchedulingPolicy.resident_index`).  The engine tells it of
  every request that joins or leaves ``running`` and of every first
  token, the one phase change.  Within a phase a deadline is fixed, so
  the index ranks residents by clock-free keys and ``victim(clock)``
  reads the scan's answer off the end.  Slack is monotone in the
  deadline, but two deadlines can round to the same slack, which the
  scan breaks by the larger ``(arrival_s, rid)``: with the clock at
  100.0, deadlines 30.0 and the next float up both leave -70.0.  So
  :class:`SlackIndex` walks down from its top entry while the slack
  rounds to the top's, keeping the largest ``(arrival_s, rid)``;
* a run's :class:`QueueOrder` inserts each arrival and each requeued
  victim at its ``queue_key`` position, computing each request's key
  once.  The key ends in the unique ``rid``, a total order, so every
  queue is exactly what a stable re-sort would make of it, and none is
  ever re-sorted.

**Admission gating** — tenants with a ``token_rate_limit`` admit
through a :class:`TokenBucket` (capacity ``burst_tokens``, refilled
continuously): a request charges ``total_tokens`` when admitted, an
underfull bucket defers admission (head-of-line, retried every step —
the engine schedules a :class:`~repro.serve.events.RateRefill` wake-up
when the calendar would otherwise go idle), and a request larger than
the bucket capacity is rejected at arrival, never entering the queue.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigError
from repro.workloads.tenants import TenantSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from collections import deque

    from repro.serve.batcher import ActiveRequest
    from repro.serve.metrics import RequestRecord
    from repro.workloads.traces import Request

#: Bucket-level tolerance absorbing float refill error: a request due
#: exactly at a refill boundary must admit there, not one event later.
_BUCKET_EPS = 1e-9

_INF = float("inf")


class SchedulingPolicy:
    """Preemption-order (and optionally queue-order) policy."""

    name: str = "policy"
    #: Does the policy keep the waiting queue in ``queue_key`` order
    #: (rather than first come, first served)?
    reorders_queue: bool = False

    def victim_key(self, ar: "ActiveRequest", clock: float,
                   record: "RequestRecord | None",
                   tenant: TenantSpec | None):
        """Sort key of eviction preference; ``max`` wins (is evicted)."""
        raise NotImplementedError

    def queue_key(self, req: "Request", tenant: TenantSpec | None):
        """Waiting-queue sort key (ascending; head admits first)."""
        raise NotImplementedError

    def resident_index(self, records: "Mapping[int, RequestRecord]",
                       tenants: "Mapping[str, TenantSpec]"
                       ) -> "ResidentIndex":
        """A fresh index of one pool's residents for one run, whose
        ``victim(clock)`` is the resident ``victim_key`` ranks first."""
        raise NotImplementedError


class ResidentIndex:
    """One pool's residents in eviction order, for one run.

    Entries are ``(*rank, rid, ar)`` tuples kept sorted, the rank a key
    that does not move with the clock; the unique ``rid`` settles every
    comparison before it reaches the request.  This index ranks by
    ``arrival_s``, so its victim is the last entry: the youngest
    resident, :class:`YoungestFirst`'s pick.
    """

    def __init__(self) -> None:
        self._entries: list[tuple] = []
        self._by_rid: dict[int, tuple] = {}

    def _entry(self, ar: "ActiveRequest") -> tuple:
        req = ar.request
        return (req.arrival_s, req.rid, ar)

    def add(self, ar: "ActiveRequest") -> None:
        """``ar`` joined the pool's ``running``."""
        entry = self._by_rid[ar.request.rid] = self._entry(ar)
        insort(self._entries, entry)

    def remove(self, ar: "ActiveRequest") -> None:
        """``ar`` left the pool's ``running``."""
        entries = self._entries
        del entries[bisect_left(entries, self._by_rid.pop(ar.request.rid))]

    def first_token(self, ar: "ActiveRequest") -> None:
        """``ar`` emitted its first token: prefilling became decoding."""

    def victim(self, clock: float) -> "ActiveRequest":
        """The resident the policy evicts at ``clock``."""
        return self._entries[-1][-1]


class SlackIndex(ResidentIndex):
    """:class:`PrioritySlack`'s index: entries rank by ``(-priority,
    deadline, arrival_s)``, the deadline being the phase's fixed
    instant that slack counts down to (infinite without an SLO)."""

    def __init__(self, records: "Mapping[int, RequestRecord]",
                 tenants: "Mapping[str, TenantSpec]") -> None:
        super().__init__()
        self._records = records
        self._tenants = tenants

    def _entry(self, ar: "ActiveRequest") -> tuple:
        # The deadlines are the float expressions PrioritySlack._slack_s
        # evaluates before it subtracts the clock.
        req = ar.request
        tenant = self._tenants.get(req.tenant)
        if tenant is None:
            return (0, _INF, req.arrival_s, req.rid, ar)
        if not ar.prefilled:
            slo_s = tenant.ttft_slo_s
            deadline = _INF if slo_s is None else req.arrival_s + slo_s
        elif tenant.tpot_slo_s is None:
            deadline = _INF
        else:
            deadline = (self._records[req.rid].first_token_s
                        + tenant.tpot_slo_s * max(req.output_tokens - 1, 0))
        return (-tenant.priority, deadline, req.arrival_s, req.rid, ar)

    def first_token(self, ar: "ActiveRequest") -> None:
        self.remove(ar)
        self.add(ar)

    def victim(self, clock: float) -> "ActiveRequest":
        entries = self._entries
        best = entries[-1]
        rank, deadline = best[0], best[1]
        if deadline == _INF:
            return best[-1]
        # Lower deadlines of the top class whose slack rounds to the
        # top's tie with it; the scan evicts the latest of them.
        slack = deadline - clock
        index = len(entries) - 1
        while index:
            index -= 1
            entry = entries[index]
            if entry[0] != rank or entry[1] - clock != slack:
                break
            if (entry[2], entry[3]) > (best[2], best[3]):
                best = entry
        return best[-1]


class QueueOrder:
    """A run's waiting queues, each kept in a policy's ``queue_key``
    order (head admits first)."""

    def __init__(self, policy: SchedulingPolicy,
                 tenants: "Mapping[str, TenantSpec]") -> None:
        self._policy = policy
        self._tenants = tenants
        self._keys: dict[int, object] = {}

    def key(self, req: "Request"):
        """``req``'s ``queue_key``, computed once per run."""
        key = self._keys.get(req.rid)
        if key is None:
            key = self._keys[req.rid] = self._policy.queue_key(
                req, self._tenants.get(req.tenant))
        return key

    def insert(self, waiting: "deque[Request]", req: "Request") -> None:
        """Queue ``req`` at its key's position in ``waiting``."""
        insort(waiting, req, key=self.key)


class YoungestFirst(SchedulingPolicy):
    """Evict the latest arrival — the engine's historical default."""

    name = "youngest_first"
    reorders_queue = False

    def victim_key(self, ar: "ActiveRequest", clock: float,
                   record: "RequestRecord | None",
                   tenant: TenantSpec | None):
        return (ar.request.arrival_s, ar.request.rid)

    def resident_index(self, records: "Mapping[int, RequestRecord]",
                       tenants: "Mapping[str, TenantSpec]"
                       ) -> ResidentIndex:
        return ResidentIndex()


class PrioritySlack(SchedulingPolicy):
    """Evict low priority first, then the most SLO slack."""

    name = "priority_slack"
    reorders_queue = True

    def victim_key(self, ar: "ActiveRequest", clock: float,
                   record: "RequestRecord | None",
                   tenant: TenantSpec | None):
        priority = tenant.priority if tenant is not None else 0
        return (-priority, self._slack_s(ar, clock, record, tenant),
                ar.request.arrival_s, ar.request.rid)

    def queue_key(self, req: "Request", tenant: TenantSpec | None):
        priority = tenant.priority if tenant is not None else 0
        return (-priority, req.arrival_s, req.rid)

    def resident_index(self, records: "Mapping[int, RequestRecord]",
                       tenants: "Mapping[str, TenantSpec]"
                       ) -> SlackIndex:
        return SlackIndex(records, tenants)

    @staticmethod
    def _slack_s(ar: "ActiveRequest", clock: float,
                 record: "RequestRecord | None",
                 tenant: TenantSpec | None) -> float:
        """Seconds until the request's next deadline (inf = no SLO)."""
        if tenant is None:
            return _INF
        if not ar.prefilled:
            if tenant.ttft_slo_s is None:
                return _INF
            return ar.request.arrival_s + tenant.ttft_slo_s - clock
        if tenant.tpot_slo_s is None:
            return _INF
        first = (record.first_token_s if record is not None
                 and record.first_token_s is not None else clock)
        pace_tokens = max(ar.request.output_tokens - 1, 0)
        return first + tenant.tpot_slo_s * pace_tokens - clock


#: Scheduler names accepted by :func:`make_scheduler` (and the
#: ``serving.scheduler`` spec field / ``--scheduler`` flag).
SCHEDULER_NAMES = ("youngest_first", "priority_slack")


def make_scheduler(name: str) -> SchedulingPolicy:
    """Build a scheduling policy from its registry name."""
    if name == "youngest_first":
        return YoungestFirst()
    if name == "priority_slack":
        return PrioritySlack()
    known = ", ".join(SCHEDULER_NAMES)
    raise ConfigError(f"unknown scheduler {name!r}; known: {known}")


@dataclass
class TokenBucket:
    """Continuously refilled token bucket (starts full)."""

    rate: float                     # tokens per second
    capacity: float
    tokens: float = 0.0
    clock_s: float = 0.0

    def __post_init__(self) -> None:
        self.tokens = self.capacity

    def refill(self, clock: float) -> None:
        if clock > self.clock_s:
            self.tokens = min(self.capacity,
                              self.tokens + self.rate
                              * (clock - self.clock_s))
            self.clock_s = clock

    def try_charge(self, clock: float, amount: float) -> bool:
        self.refill(clock)
        if amount <= self.tokens + _BUCKET_EPS:
            self.tokens -= amount
            return True
        return False

    def charge_time_s(self, clock: float, amount: float) -> float:
        """Earliest clock at which ``amount`` tokens are available."""
        self.refill(clock)
        if amount <= self.tokens + _BUCKET_EPS:
            return clock
        return clock + (amount - self.tokens) / self.rate + _BUCKET_EPS


class AdmissionGate:
    """Per-tenant token-rate admission control.

    One :class:`TokenBucket` per rate-limited tenant; tenants without
    a limit pass through untouched.  The gate is per-run state — the
    engine builds a fresh one for every trace it serves.
    """

    def __init__(self, tenants: "Mapping[str, TenantSpec]") -> None:
        self._buckets: dict[str, TokenBucket] = {}
        for name, tenant in tenants.items():
            capacity = tenant.bucket_capacity
            if tenant.token_rate_limit is not None and capacity:
                self._buckets[name] = TokenBucket(
                    rate=float(tenant.token_rate_limit),
                    capacity=capacity)

    def __bool__(self) -> bool:
        return bool(self._buckets)

    def admissible(self, req: "Request") -> bool:
        """Can ``req`` *ever* be admitted (fits the bucket capacity)?"""
        bucket = self._buckets.get(req.tenant)
        return (bucket is None
                or req.total_tokens <= bucket.capacity + _BUCKET_EPS)

    def try_admit(self, clock: float, req: "Request") -> bool:
        """Charge ``req``'s tokens if its tenant's bucket allows."""
        bucket = self._buckets.get(req.tenant)
        if bucket is None:
            return True
        return bucket.try_charge(clock, float(req.total_tokens))

    def next_admit_s(self, clock: float, req: "Request") -> float | None:
        """When ``req`` could next pass the gate; ``None`` = now (or
        never — callers screen :meth:`admissible` at arrival)."""
        bucket = self._buckets.get(req.tenant)
        if bucket is None or not self.admissible(req):
            return None
        when_s = bucket.charge_time_s(clock, float(req.total_tokens))
        return when_s if when_s > clock else None
