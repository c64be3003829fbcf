"""``repro bench sim`` — the simulator's own speed benchmark.

Every other subcommand measures the *modelled* server; this one
measures the simulator.  It builds a synthetic replay trace, serves it
through the event-calendar core (:class:`~repro.serve.engine.ServingEngine`)
under a wall clock, serves a slice of the same workload through the
frozen pre-calendar loop
(:class:`~repro.serve._legacy_loop.ReferenceEngine`), and emits
``BENCH_sim.json`` with simulated-requests/sec, steps/sec and the
speedup of the calendar core over the reference — the speed
trajectory later PRs answer to.

The regression gate compares the *speedup ratio*, not absolute
requests/sec: both engines run on the same machine in the same
process, so the ratio is machine-independent and survives noisy CI
runners.  ``check_regression`` fails when the measured ratio falls
more than the tolerance below the checked-in baseline
(``benchmarks/BENCH_baseline.json``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.context import ExecutionContext
from repro.errors import ConfigError
from repro.serve._legacy_loop import ReferenceEngine
from repro.serve.engine import ServingEngine
from repro.serve.metrics import sim_throughput
from repro.workloads.traces import Request, replay_trace
from repro.utils.host import host_metadata
from repro.utils.rng import new_rng

#: Benchmark protocol defaults: the acceptance workload is a
#: 100k-request replay of a chat-style trace — long generations
#: (256-512 output tokens) at a modest arrival rate, the regime a
#: serving simulator spends most of its steps in (decode-dominated,
#: below saturation).  ``--quick`` (CI's perf-smoke job) shrinks both
#: sides but keeps the regime, and therefore the ratio, comparable.
DEFAULT_REQUESTS = 100_000
DEFAULT_REFERENCE_REQUESTS = 2_000
QUICK_REQUESTS = 3_000
QUICK_REFERENCE_REQUESTS = 600
DEFAULT_RATE_QPS = 10.0
DEFAULT_SEED = 7

#: Step allowance for the replay: the decode-heavy workload takes a
#: few dozen steps per request, far past ``ServingEngine.run``'s
#: default guard.
MAX_STEPS = 100_000_000

BENCH_VERSION = 1


def synthetic_trace(num_requests: int, rate_qps: float = DEFAULT_RATE_QPS,
                    seed: int = DEFAULT_SEED) -> list[Request]:
    """A reproducible synthetic replay trace.

    Poisson arrivals at ``rate_qps`` with mixed prompt (64-512) and
    output (256-512) lengths, round-tripped through
    :func:`~repro.workloads.traces.replay_trace` so the benchmark
    exercises the replay front door end to end.
    """
    if num_requests <= 0:
        raise ConfigError("num_requests must be positive")
    if rate_qps <= 0:
        raise ConfigError("rate_qps must be positive")
    rng = new_rng(seed)
    gaps = rng.exponential(1.0 / rate_qps, size=num_requests)
    prompts = rng.integers(64, 513, size=num_requests)
    outputs = rng.integers(256, 513, size=num_requests)
    clock = 0.0
    records = []
    for gap, prompt, output in zip(gaps, prompts, outputs):
        clock += float(gap)
        records.append((clock, int(prompt), int(output)))
    return replay_trace(records)


def _timed_run(engine, trace) -> dict[str, object]:
    start = time.perf_counter()
    report = engine.run(trace, max_steps=MAX_STEPS)
    wall = time.perf_counter() - start
    result: dict[str, object] = {
        "requests": len(trace),
        "steps": report.steps,
        "completed": report.completed,
    }
    result.update(sim_throughput(len(trace), report.steps, wall))
    return result


def run_benchmark(requests: int = DEFAULT_REQUESTS,
                  reference_requests: int = DEFAULT_REFERENCE_REQUESTS,
                  model: str = "mixtral-8x7b", engine: str = "samoyeds",
                  gpu: str = "a100", num_layers: int = 1,
                  rate_qps: float = DEFAULT_RATE_QPS,
                  seed: int = DEFAULT_SEED) -> dict[str, object]:
    """Run the two-sided benchmark and return the payload.

    The event core serves the full trace; the reference loop serves
    the first ``reference_requests`` of the *same* trace (its
    per-request cost is what the calendar removed, so a slice bounds
    the benchmark's wall clock).  Requests/sec compare like for like:
    simulated requests over wall seconds on the same machine.
    """
    reference_requests = min(reference_requests, requests)
    trace = synthetic_trace(requests, rate_qps=rate_qps, seed=seed)

    def make(cls):
        ctx = ExecutionContext.create(model, engine, gpu)
        return cls(ctx=ctx, num_layers=num_layers, seed=seed)

    event_core = _timed_run(make(ServingEngine), trace)
    reference = _timed_run(make(ReferenceEngine),
                           trace[:reference_requests])
    speedup = {
        "requests_per_s": (event_core["requests_per_s"]
                           / reference["requests_per_s"]
                           if reference["requests_per_s"] else 0.0),
        "steps_per_s": (event_core["steps_per_s"]
                        / reference["steps_per_s"]
                        if reference["steps_per_s"] else 0.0),
    }
    return {
        "version": BENCH_VERSION,
        # Informational only: trajectory comparisons across machines
        # need to see the host; the --check gate never reads it (it
        # compares the machine-independent speedup ratio).
        "host": host_metadata(),
        "workload": {
            "model": model, "engine": engine, "gpu": gpu,
            "num_layers": num_layers, "requests": requests,
            "reference_requests": reference_requests,
            "rate_qps": rate_qps, "seed": seed,
        },
        "event_core": event_core,
        "reference_loop": reference,
        "speedup": speedup,
    }


def check_regression(payload: dict[str, object], baseline_path: "str | Path",
                     tolerance: float = 0.30) -> "str | None":
    """Compare a benchmark payload against the checked-in baseline.

    Returns ``None`` when within tolerance, else a human-readable
    failure message.  The gate is the requests/sec *speedup ratio*:
    ``measured >= baseline * (1 - tolerance)``.
    """
    path = Path(baseline_path)
    try:
        baseline = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read baseline {path}: {exc}") from exc
    expected = baseline.get("speedup_requests_per_s")
    if not isinstance(expected, (int, float)) or expected <= 0:
        raise ConfigError(
            f"baseline {path} lacks a positive speedup_requests_per_s")
    measured = payload["speedup"]["requests_per_s"]  # type: ignore[index]
    floor = expected * (1.0 - tolerance)
    if measured < floor:
        return (f"sim-throughput regression: speedup {measured:.2f}x "
                f"fell below {floor:.2f}x "
                f"({expected:.2f}x baseline - {tolerance:.0%} tolerance)")
    return None
