"""Step composition policies: continuous, chunked-prefill and static.

A *step* is one full-model forward.  The batcher decides, at each step
boundary, which waiting requests to admit (prefill) and which running
requests advance by one token (decode):

* :class:`ContinuousBatcher` — vLLM/Orca-style iteration-level
  scheduling: every running request decodes each step, and new requests
  are admitted the moment the token budget and device memory allow,
  mixing prefill and decode work in one step;
* :class:`ChunkedPrefillBatcher` — continuous batching where long
  prompts are *split across steps* under the token budget instead of
  running alone: a 2k-token prompt no longer waits for an idle engine,
  it streams in beside the running decodes one chunk at a time;
* :class:`StaticBatcher` — the classic baseline: collect a fixed batch,
  run it to completion, admit nothing in between.  Short requests wait
  for the stragglers (the convoy effect continuous batching removes).

Admission charges device memory through a
:class:`~repro.moe.memory_model.MemoryLedger` — either the conservative
peak-reserving :class:`~repro.moe.memory_model.KVCacheTracker` or the
paged :class:`~repro.moe.memory_model.BlockAllocator`, which charges
only live blocks — so the concurrency ceiling per engine emerges from
the Table-3 memory model rather than a configured limit.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from itertools import filterfalse
from operator import attrgetter

from repro.errors import ConfigError
from repro.moe.memory_model import DeviceLedgers, MemoryLedger
from repro.workloads.traces import Request

#: Batchers speak the shared admission interface: a single-device
#: ledger or the per-device composite of a multi-GPU grid.
LedgerLike = MemoryLedger | DeviceLedgers

_PREFILLED = attrgetter("prefilled")


@dataclass(eq=False)
class ActiveRequest:
    """A request resident in device memory (admitted, not finished).

    ``eq=False``: residency is identity.  Exactly one ActiveRequest
    exists per admitted rid, and the serving loops remove it from the
    ``running`` list thousands of times per second — identity
    comparison keeps ``list.remove`` a C-level pointer scan instead of
    a field-by-field dataclass ``__eq__`` against every resident
    request.
    """

    request: Request
    admitted_s: float
    generated: int = 0
    prefilled: bool = False
    prefilled_tokens: int = 0

    @property
    def context_tokens(self) -> int:
        """Current KV-cache length of this request."""
        return self.prefilled_tokens + self.generated

    @property
    def finished(self) -> bool:
        return self.generated >= self.request.output_tokens


@dataclass(frozen=True)
class PrefillChunk:
    """One step's slice of a request's prompt (chunked prefill)."""

    ar: ActiveRequest
    tokens: int
    offset: int                  # KV tokens resident before this chunk

    @property
    def completes(self) -> bool:
        """Does this chunk finish the prompt (emitting token one)?"""
        return self.offset + self.tokens >= self.ar.request.prompt_tokens


@dataclass(frozen=True)
class StepPlan:
    """Work selected for one engine step."""

    prefill: tuple[ActiveRequest, ...] = ()
    decode: tuple[ActiveRequest, ...] = ()
    chunks: tuple[PrefillChunk, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.prefill and not self.decode and not self.chunks

    @property
    def prefill_tokens(self) -> int:
        return (sum(ar.request.prompt_tokens for ar in self.prefill)
                + sum(chunk.tokens for chunk in self.chunks))

    @property
    def decode_tokens(self) -> int:
        return len(self.decode)

    @property
    def total_tokens(self) -> int:
        """New tokens traversing the MoE layer this step."""
        return self.prefill_tokens + self.decode_tokens


class Batcher(abc.ABC):
    """Step-composition policy interface."""

    name: str = "batcher"

    #: Per-tenant token-rate admission gate
    #: (:class:`repro.serve.scheduling.AdmissionGate`), set by the
    #: engine at run start; ``None`` (single-tenant / unthrottled
    #: runs) keeps admission exactly as before.
    admission_gate = None

    @abc.abstractmethod
    def plan_step(self, clock: float, waiting: "deque[Request]",
                  running: list[ActiveRequest], tracker: LedgerLike,
                  more_arrivals: bool) -> StepPlan:
        """Select this step's work; admits from ``waiting`` in place."""

    def _admit(self, clock: float, waiting: "deque[Request]",
               tracker: LedgerLike) -> ActiveRequest | None:
        """Admit the head of the queue if the ledger accepts it whole.

        Memory is checked before the rate gate so a memory-deferred
        request never consumes its tenant's bucket tokens; the gate
        charge happens exactly once, at actual admission.
        """
        req = waiting[0]
        if not tracker.can_admit_request(req.prompt_tokens,
                                         req.total_tokens):
            return None
        if (self.admission_gate is not None
                and not self.admission_gate.try_admit(clock, req)):
            return None                   # rate-throttled: retry later
        waiting.popleft()
        tracker.admit(req.rid, req.prompt_tokens, req.total_tokens)
        return ActiveRequest(request=req, admitted_s=clock)


@dataclass
class BudgetedBatcher(Batcher):
    """Shared knobs of the token-budgeted policies.

    ``token_budget`` bounds the *new* tokens packed into one step
    (prompt tokens for prefill, one per decode); decode work is never
    throttled — running requests always advance, the budget only limits
    how much prefill is mixed in alongside them.  ``max_running``
    optionally caps resident requests below the memory-derived limit.
    """

    token_budget: int = 4096
    max_running: int | None = None

    def __post_init__(self) -> None:
        if self.token_budget <= 0:
            raise ConfigError("token_budget must be positive")
        if self.max_running is not None and self.max_running <= 0:
            raise ConfigError("max_running must be positive")


@dataclass
class ContinuousBatcher(BudgetedBatcher):
    """Iteration-level scheduling under a per-step token budget."""

    name: str = field(default="continuous", init=False)

    def plan_step(self, clock: float, waiting: "deque[Request]",
                  running: list[ActiveRequest], tracker: LedgerLike,
                  more_arrivals: bool) -> StepPlan:
        decode = tuple(running)
        budget = self.token_budget - len(decode)
        prefill: list[ActiveRequest] = []
        while waiting:
            resident = len(decode) + len(prefill)
            if (self.max_running is not None
                    and resident >= self.max_running):
                break
            prompt_tokens = waiting[0].prompt_tokens
            oversized = prompt_tokens > self.token_budget
            if prompt_tokens > budget \
                    and not (oversized and resident == 0):
                # Budget exhausted — except an over-budget prompt on an
                # otherwise idle engine, which must run alone or starve.
                break
            admitted = self._admit(clock, waiting, tracker)
            if admitted is None:
                break                     # memory-bound: retry next step
            prefill.append(admitted)
            budget -= prompt_tokens
        return StepPlan(prefill=tuple(prefill), decode=decode)


@dataclass
class ChunkedPrefillBatcher(BudgetedBatcher):
    """Iteration-level scheduling with prompts split across steps.

    Decode work is never throttled; the leftover token budget each step
    is filled with prompt *chunks* (Sarathi/vLLM-style chunked prefill).
    At most one request is mid-prefill at a time (FCFS): its next chunk
    is sized by the leftover budget and — on a paged ledger — by the
    blocks actually free, so admission charges only live blocks rather
    than a request's peak footprint.  A request whose last chunk runs
    this step emits its first token this step.

    Newly admitted requests are appended to ``running`` immediately
    (``prefilled`` stays ``False`` until the prompt completes), so
    partially-prefilled KV survives across steps.
    """

    name: str = field(default="chunked", init=False)

    def plan_step(self, clock: float, waiting: "deque[Request]",
                  running: list[ActiveRequest], tracker: LedgerLike,
                  more_arrivals: bool) -> StepPlan:
        decode = tuple(filter(_PREFILLED, running))
        budget = self.token_budget - len(decode)
        chunks: list[PrefillChunk] = []
        partial = next(filterfalse(_PREFILLED, running), None)
        in_flight = partial is not None
        if partial is not None and budget > 0:
            remaining_tokens = (partial.request.prompt_tokens
                                - partial.prefilled_tokens)
            grant = tracker.clamp_growth(partial.request.rid,
                                         min(budget, remaining_tokens))
            if grant > 0:
                tracker.grow_each((partial.request.rid,), grant)
                chunks.append(PrefillChunk(
                    ar=partial, tokens=grant,
                    offset=partial.prefilled_tokens))
                budget -= grant
                in_flight = grant < remaining_tokens
        while budget > 0 and waiting and not in_flight:
            if (self.max_running is not None
                    and len(running) >= self.max_running):
                break
            req = waiting[0]
            first = tracker.admission_chunk(
                min(budget, req.prompt_tokens), req.total_tokens)
            if first <= 0:
                break                     # memory-bound: retry next step
            if (self.admission_gate is not None
                    and not self.admission_gate.try_admit(clock, req)):
                break                     # rate-throttled: retry later
            waiting.popleft()
            tracker.admit(req.rid, first, req.total_tokens)
            ar = ActiveRequest(request=req, admitted_s=clock)
            running.append(ar)
            chunks.append(PrefillChunk(ar=ar, tokens=first, offset=0))
            budget -= first
            in_flight = first < req.prompt_tokens
        return StepPlan(decode=decode, chunks=tuple(chunks))


@dataclass
class StaticBatcher(Batcher):
    """Fixed-size batches run to completion (the convoy baseline)."""

    batch_size: int = 8

    name: str = field(default="static", init=False)

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")

    def plan_step(self, clock: float, waiting: "deque[Request]",
                  running: list[ActiveRequest], tracker: LedgerLike,
                  more_arrivals: bool) -> StepPlan:
        if running:
            return StepPlan(decode=tuple(running))
        if len(waiting) < self.batch_size and more_arrivals:
            return StepPlan()             # wait for the batch to fill
        prefill: list[ActiveRequest] = []
        while waiting and len(prefill) < self.batch_size:
            admitted = self._admit(clock, waiting, tracker)
            if admitted is None:
                break
            prefill.append(admitted)
        return StepPlan(prefill=tuple(prefill))


#: Policy names accepted by :func:`make_batcher` (and the ``batcher``
#: field of :class:`repro.api.ServingSpec` / the ``--batcher`` flag).
BATCHER_NAMES = ("continuous", "chunked", "static")


def make_batcher(name: str, *, token_budget: int = 4096,
                 batch_size: int = 8,
                 max_running: int | None = None) -> Batcher:
    """Build a batching policy from its registry name.

    The single construction path shared by the CLI and the declarative
    deployment API: ``token_budget``/``max_running`` configure the
    budgeted policies, ``batch_size`` the static one; knobs that do not
    apply to the chosen policy are ignored.
    """
    if name == "continuous":
        return ContinuousBatcher(token_budget=token_budget,
                                 max_running=max_running)
    if name == "chunked":
        return ChunkedPrefillBatcher(token_budget=token_budget,
                                     max_running=max_running)
    if name == "static":
        return StaticBatcher(batch_size=batch_size)
    known = ", ".join(BATCHER_NAMES)
    raise ConfigError(f"unknown batcher {name!r}; known: {known}")
