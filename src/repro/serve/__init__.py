"""Request-level serving simulator (continuous batching).

Everything below the serving layer prices one decoder layer for one
token batch; this package lifts the cost stack to the *request* level: a
heap-ordered event calendar (:mod:`repro.serve.events`) admits requests
from an arrival trace, packs prefill and decode work into engine steps
under a token budget, charges KV-cache growth against device memory,
and reports TTFT / TPOT / throughput / queue-depth percentiles per
engine.  Step pricing is memoised and vectorized
(:mod:`repro.serve.costs`); ``repro bench sim`` measures the
simulator's own speed.  DESIGN.md documents how the simulator composes
with the per-layer models; this is an extension beyond the paper's
per-layer evaluation.
"""

from repro.serve.costs import StepPricer
from repro.serve.events import (
    CLOCK_EPS,
    Arrival,
    EventKind,
    EventManager,
    EventQueue,
    HorizonExpired,
    Preempt,
    RateRefill,
    StepComplete,
)
from repro.serve.scheduling import (
    SCHEDULER_NAMES,
    AdmissionGate,
    PrioritySlack,
    TokenBucket,
    YoungestFirst,
    make_scheduler,
)
from repro.workloads.traces import (
    Request,
    bursty_trace,
    poisson_trace,
    replay_trace,
)
from repro.serve.batcher import (
    BATCHER_NAMES,
    ChunkedPrefillBatcher,
    ContinuousBatcher,
    PrefillChunk,
    StaticBatcher,
    StepPlan,
    make_batcher,
)
from repro.serve.engine import ServingEngine
from repro.serve.metrics import (
    PercentileSummary,
    ServeReport,
    percentile,
    sim_throughput,
    summarise,
)

__all__ = [
    "CLOCK_EPS",
    "Arrival",
    "StepComplete",
    "Preempt",
    "HorizonExpired",
    "RateRefill",
    "EventKind",
    "SCHEDULER_NAMES",
    "make_scheduler",
    "YoungestFirst",
    "PrioritySlack",
    "AdmissionGate",
    "TokenBucket",
    "EventQueue",
    "EventManager",
    "StepPricer",
    "Request",
    "poisson_trace",
    "bursty_trace",
    "replay_trace",
    "BATCHER_NAMES",
    "make_batcher",
    "ChunkedPrefillBatcher",
    "ContinuousBatcher",
    "PrefillChunk",
    "StaticBatcher",
    "StepPlan",
    "ServingEngine",
    "PercentileSummary",
    "ServeReport",
    "percentile",
    "sim_throughput",
    "summarise",
]
