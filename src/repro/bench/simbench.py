"""``repro bench sim`` — the simulator's own speed benchmark.

Every other subcommand measures the *modelled* server; this one
measures the simulator.  It serves synthetic replay traces through the
event-calendar core (:class:`~repro.serve.engine.ServingEngine`) under
a wall clock and emits ``BENCH_sim.json`` with simulated-requests/sec
and steps/sec — the speed trajectory later changes answer to.

Requests/sec depends on the host, so the regression gate reads
simulated requests per million *calibration* operations: fixed
pure-Python work of the simulator's kind, timed in the same process.
The run is :data:`PAIRS` pairs of a calibration slice, one trace and
another slice; a pair scores its requests/sec over the mean rate of
its two slices, so host load that drifts during the run cancels.
``check_regression`` fails when the median pair falls more than the
tolerance below ``benchmarks/BENCH_baseline.json``.
"""

from __future__ import annotations

import heapq
import json
import statistics
import time
from pathlib import Path

from repro.context import ExecutionContext
from repro.errors import ConfigError
from repro.serve.engine import ServingEngine
from repro.serve.metrics import sim_throughput
from repro.workloads.traces import Request, replay_trace
from repro.utils.host import host_metadata
from repro.utils.rng import new_rng

#: Benchmark protocol defaults: the acceptance workload is a
#: 100k-request replay of a chat-style trace — long generations
#: (256-512 output tokens) at a modest arrival rate, the regime a
#: serving simulator spends most of its steps in (decode-dominated,
#: below saturation).  ``--quick`` (CI's perf-smoke job) shrinks the
#: trace but keeps the regime, and therefore the normalised number,
#: comparable.
DEFAULT_REQUESTS = 100_000
QUICK_REQUESTS = 3_000
DEFAULT_RATE_QPS = 10.0
DEFAULT_SEED = 7

#: Calibration/simulation pairs per run; operations per calibration
#: slice (about 40 ms on a 2-vCPU x86 host).
PAIRS = 10
CALIBRATION_OPS = 50_000

#: Step allowance for the replay: the decode-heavy workload takes a
#: few dozen steps per request, far past ``ServingEngine.run``'s
#: default guard.
MAX_STEPS = 100_000_000

BENCH_VERSION = 2


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


class _Record:
    """Calibration stand-in for a simulator record."""

    __slots__ = ("due", "hits")

    def __init__(self, due: int) -> None:
        self.due = due
        self.hits = 0

    def advance(self, step: int) -> int:
        self.hits += 1
        self.due += step
        return self.due


def _calibration_slice() -> float:
    """Wall seconds of :data:`CALIBRATION_OPS` operations, each a
    ``heapq`` replace on tuples, a method call on a ``__slots__``
    record and a dict update.  The timed loop allocates nothing the
    garbage collector tracks (tuples come from a prebuilt pool), so its
    speed does not depend on how much the simulator has allocated."""
    records = [_Record(i) for i in range(64)]
    heap = [(i, i) for i in range(64)]
    pool = [((i * 7919) % 1009, i % 64) for i in range(1024)]
    latest = dict.fromkeys(range(64), 0)
    start = time.perf_counter()
    for op in range(CALIBRATION_OPS):
        _, key = heapq.heapreplace(heap, pool[op & 1023])
        latest[key] = records[key].advance(op)
    return time.perf_counter() - start


def run_benchmark(requests: int = DEFAULT_REQUESTS,
                  model: str = "mixtral-8x7b", engine: str = "samoyeds",
                  gpu: str = "a100", num_layers: int = 1,
                  rate_qps: float = DEFAULT_RATE_QPS,
                  seed: int = DEFAULT_SEED) -> dict[str, object]:
    """Run the paired benchmark and return the payload.

    Pair ``k`` serves ``synthetic_trace(requests // PAIRS, seed=seed +
    k)`` through one engine shared by every pair (its pricing memo
    warms up across pairs, as in a long run).  ``event_core`` totals
    the pairs; ``normalised`` holds each pair's score and their median,
    the number the gate reads.
    """
    if requests < PAIRS:
        raise ConfigError(
            f"requests must be at least {PAIRS}, one per pair; "
            f"got {requests}")
    server = ServingEngine(ctx=ExecutionContext.create(model, engine, gpu),
                           num_layers=num_layers, seed=seed)
    served = steps = completed = 0
    run_s = calibration_s = 0.0
    scores = []
    for k in range(PAIRS):
        trace = synthetic_trace(requests // PAIRS, rate_qps=rate_qps,
                                seed=seed + k)
        before = _calibration_slice()
        start = time.perf_counter()
        report = server.run(trace, max_steps=MAX_STEPS)
        wall = time.perf_counter() - start
        after = _calibration_slice()
        ops_per_s = (CALIBRATION_OPS / before + CALIBRATION_OPS / after) / 2
        scores.append(len(trace) / wall / ops_per_s * 1e6)
        served += len(trace)
        steps += report.steps
        completed += report.completed
        run_s += wall
        calibration_s += before + after
    return {
        "version": BENCH_VERSION,
        # Informational only: trajectory comparisons across machines
        # need to see the host; the --check gate never reads it (it
        # compares the calibration-normalised number).
        "host": host_metadata(),
        "workload": {
            "model": model, "engine": engine, "gpu": gpu,
            "num_layers": num_layers, "requests": requests,
            "pairs": PAIRS, "rate_qps": rate_qps, "seed": seed,
        },
        "event_core": {"requests": served, "steps": steps,
                       "completed": completed,
                       **sim_throughput(served, steps, run_s)},
        "calibration": {
            "ops_per_slice": CALIBRATION_OPS, "wall_s": calibration_s,
            "ops_per_s": 2 * PAIRS * CALIBRATION_OPS / calibration_s,
        },
        "normalised": {"requests_per_mop": statistics.median(scores),
                       "pairs": scores},
    }


def check_regression(payload: dict[str, object], baseline_path: "str | Path",
                     tolerance: float = 0.30) -> "str | None":
    """Compare a benchmark payload against the checked-in baseline.

    Returns ``None`` when within tolerance, else a human-readable
    failure message.  The gate is the median pair's simulated requests
    per million calibration operations:
    ``measured >= baseline * (1 - tolerance)``.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ConfigError(f"tolerance must be in [0, 1); got {tolerance}")
    path = Path(baseline_path)
    try:
        baseline = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read baseline {path}: {exc}") from exc
    expected = baseline.get("sim_requests_per_mop")
    if not isinstance(expected, (int, float)) or expected <= 0:
        raise ConfigError(
            f"baseline {path} lacks a positive sim_requests_per_mop")
    measured = payload["normalised"]["requests_per_mop"]  # type: ignore[index]
    floor = expected * (1.0 - tolerance)
    if measured < floor:
        return (f"sim-throughput regression: {measured:.0f} simulated "
                f"requests per million calibration ops fell below "
                f"{floor:.0f} ({expected:.0f} baseline - {tolerance:.0%} "
                f"tolerance)")
    return None
