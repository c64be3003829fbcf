"""``repro bench sweepbench`` — the parallel executor's own benchmark.

``repro bench sim`` (:mod:`repro.bench.simbench`) tracks how fast one
simulation runs; this module tracks how fast a *sweep* of simulations
runs.  The protocol: a fixed 32-point grid (engine × qps × prompt ×
output axes over the Table-2 Mixtral model, the shape of the Fig
12/13/16 capacity sweeps), executed twice through the same
:class:`~repro.exec.PointRunner` — once serially in-process, once
fanned over ``--jobs`` cold worker processes — and
``BENCH_sweep.json`` records both wall clocks, their ratio, and the
measuring host.

Two properties are gated, not just recorded:

* **determinism** — the serial and parallel report payloads must be
  identical (the executor's core contract); a divergence fails the
  ``--check`` gate regardless of speed;
* **speedup** — the wall-clock ratio must stay within tolerance of
  the checked-in baseline (``benchmarks/BENCH_baseline.json``'s
  ``sweep_speedup`` key).  The ratio is compared only on hosts with
  at least two CPUs: a 1-core container physically cannot exhibit a
  process-pool speedup, and the recorded ``host`` block (which the
  gate otherwise ignores) documents why such a payload shows ~1x.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.api.loader import expand_sweep
from repro.api.spec import DeploymentSpec
from repro.errors import ConfigError
from repro.exec import PointRunner
from repro.utils.host import host_metadata

#: Benchmark protocol: requests per grid point (the point cost must
#: dominate pool overhead for the ratio to be meaningful) and the
#: CI-sized variant that keeps the regime, and therefore the ratio,
#: comparable.
DEFAULT_POINT_REQUESTS = 600
QUICK_POINT_REQUESTS = 150
DEFAULT_JOBS = 4
DEFAULT_SEED = 7

SWEEP_BENCH_VERSION = 1

#: The fixed 32-point grid: 2 engines x 2 rates x 4 prompt lengths x
#: 2 output lengths.  The ``auto`` axis puts each worker's own
#: engine selection inside the measured protocol.
GRID_AXES: "dict[str, list]" = {
    "model.engine": ["samoyeds", "auto"],
    "workload.qps": [4.0, 8.0],
    "workload.prompt_tokens": [64, 128, 256, 512],
    "workload.output_tokens": [16, 32],
}

BASE_CONFIG: "dict[str, dict]" = {
    "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
              "num_layers": 1},
    "hardware": {"gpu": "a100"},
    "workload": {"kind": "poisson", "qps": 8.0, "prompt_tokens": 128,
                 "output_tokens": 32},
}


def sweep_points(requests: int = DEFAULT_POINT_REQUESTS,
                 seed: int = DEFAULT_SEED):
    """The benchmark grid as expanded sweep points."""
    if requests <= 0:
        raise ConfigError("requests per point must be positive")
    raw = {section: dict(fields)
           for section, fields in BASE_CONFIG.items()}
    raw["workload"] = {**raw["workload"], "requests": requests,
                       "seed": seed}
    base = DeploymentSpec.from_dict(raw)
    return expand_sweep(base, GRID_AXES)


def _timed_sweep(runner: PointRunner, specs, labels
                 ) -> "tuple[float, list]":
    start = time.perf_counter()
    results = runner.run(specs, labels)
    return time.perf_counter() - start, results


def run_benchmark(jobs: int = DEFAULT_JOBS,
                  requests: int = DEFAULT_POINT_REQUESTS,
                  seed: int = DEFAULT_SEED,
                  progress=None) -> dict:
    """Run the two-sided sweep benchmark and return the payload.

    The same grid is executed serially and through ``jobs`` worker
    processes; the payload records both wall clocks, the ratio,
    whether the payloads came out identical, and the measuring host.
    """
    if jobs < 1:
        raise ConfigError("jobs must be a positive integer")
    points = sweep_points(requests=requests, seed=seed)
    specs = [p.spec for p in points]
    labels = [p.describe() for p in points]

    serial_wall_s, serial = _timed_sweep(
        PointRunner(jobs=1, progress=progress), specs, labels)

    parallel_wall_s, parallel = _timed_sweep(
        PointRunner(jobs=jobs, progress=progress), specs, labels)

    identical = ([r.report for r in serial]
                 == [r.report for r in parallel])
    return {
        "version": SWEEP_BENCH_VERSION,
        "host": host_metadata(),
        "grid": {
            "points": len(points),
            "requests_per_point": requests,
            "seed": seed,
            "base": BASE_CONFIG,
            "axes": {path: list(values)
                     for path, values in GRID_AXES.items()},
        },
        "serial": {
            "wall_s": serial_wall_s,
            "points": len(serial),
            "errors": sum(1 for r in serial if not r.ok),
        },
        "parallel": {
            "wall_s": parallel_wall_s,
            "jobs": jobs,
            "points": len(parallel),
            "errors": sum(1 for r in parallel if not r.ok),
        },
        "speedup": {
            "wall_clock": (serial_wall_s / parallel_wall_s
                           if parallel_wall_s > 0 else 0.0),
        },
        "payloads_identical": identical,
    }


def check_regression(payload: dict, baseline_path: "str | Path",
                     tolerance: float = 0.30) -> "str | None":
    """Gate a sweepbench payload against the checked-in baseline.

    Determinism is gated unconditionally: diverging serial/parallel
    payloads fail on any host.  The wall-clock speedup is gated only
    on hosts with >= 2 CPUs (``baseline['sweep_speedup']`` minus the
    tolerance); the ``host`` block is otherwise ignored, keeping
    cross-machine comparisons to the machine-independent ratio.
    Returns ``None`` when within tolerance, else a failure message.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ConfigError(f"tolerance must be in [0, 1); got {tolerance}")
    if not payload.get("payloads_identical", False):
        return ("parallel sweep payloads diverged from serial — the "
                "executor's determinism contract is broken")
    path = Path(baseline_path)
    try:
        baseline = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read baseline {path}: {exc}") from exc
    expected = baseline.get("sweep_speedup")
    if not isinstance(expected, (int, float)) or expected <= 0:
        raise ConfigError(
            f"baseline {path} lacks a positive sweep_speedup")
    cpus = payload.get("host", {}).get("cpu_count", 0)
    if isinstance(cpus, int) and cpus < 2:
        return None          # a 1-core host cannot show the ratio
    measured = payload["speedup"]["wall_clock"]
    floor = expected * (1.0 - tolerance)
    if measured < floor:
        return (f"sweep-throughput regression: speedup {measured:.2f}x "
                f"fell below {floor:.2f}x "
                f"({expected:.2f}x baseline - {tolerance:.0%} tolerance)")
    return None
