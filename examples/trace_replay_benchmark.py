"""Trace-replay benchmark: how fast does the simulator simulate?

Replays a synthetic 100k-request chat-style trace (Poisson arrivals,
256-512 output tokens) through the event-calendar serving core and
prints wall-clock seconds, simulated requests/sec and steps/sec.  This
is the acceptance workload behind ``repro bench sim`` — run that
subcommand instead when you want the JSON report, the
machine-independent normalised number and the regression gate.

Run:  PYTHONPATH=src python examples/trace_replay_benchmark.py
      PYTHONPATH=src python examples/trace_replay_benchmark.py --quick

``--quick`` (used by CI) shrinks the trace from 100k to 2k requests;
the regime stays comparable.
"""

import argparse
import time

from repro.bench.simbench import synthetic_trace
from repro.context import ExecutionContext
from repro.serve import ServingEngine, sim_throughput

MODEL, GPU, SEED = "mixtral-8x7b", "a100", 7
REQUESTS, QUICK_REQUESTS = 100_000, 2_000
MAX_STEPS = 100_000_000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (2k requests)")
    args = parser.parse_args()
    requests = QUICK_REQUESTS if args.quick else REQUESTS

    trace = synthetic_trace(requests, seed=SEED)
    print(f"replaying {requests} chat-style requests "
          f"({MODEL} on {GPU}, single layer):")
    engine = ServingEngine(ctx=ExecutionContext.create(MODEL, "samoyeds",
                                                       GPU),
                           num_layers=1, seed=SEED)
    start = time.perf_counter()
    report = engine.run(trace, max_steps=MAX_STEPS)
    wall = time.perf_counter() - start
    stats = sim_throughput(len(trace), report.steps, wall)
    print(f"  event-calendar {len(trace):>7d} requests  "
          f"{report.steps:>9d} steps  {wall:7.2f} s wall  "
          f"{stats['requests_per_s']:8.1f} req/s  "
          f"{stats['steps_per_s']:10.0f} steps/s")


if __name__ == "__main__":
    main()
