"""Repository benchmark: simulator host speed, memory and paper fidelity.

Run from the repository root::

    python3 perfbench/run.py --workload chat-colocated --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` first repeats untraced passes, then wraps the public calls
into every layer (:mod:`tracing`) and reports per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(seed, host, digests, checks, paper rows) goes to ``perfbench/out/``.

Host time is what the simulator takes to run; modeled time is what the
simulated server would take.  Every ``*_s`` metric here is host time
except the ``model.*`` ones; on untraced runs it is rescaled to a
reference host speed (:mod:`speed`).  The benchmark runs in one process
on one thread, with BLAS pinned to one thread.
"""

from __future__ import annotations

import os

# Pin BLAS before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import paper  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, install  # noqa: E402
from workloads import PAPER_FIGURES, SERVING, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per group; one group runs before the timed passes and one
#: after them.
SETUP_REPEATS = 5

now = time.perf_counter


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Timing:
    """Seconds of one timed call: ``seconds`` is the reported time
    (reference-speed seconds when probed, else host seconds), ``host``
    the host seconds the call itself took."""
    seconds: float
    host: float


def timed(fn, probe: speed.Probe | None) -> tuple[Timing, object]:
    """Call ``fn`` on a freshly collected heap: (timing, result).

    Untraced runs pass a ``probe``: their time is rescaled to the
    reference host speed (:mod:`speed`).  Traced runs pass none, so that
    no probe lands in a layer's span.
    """
    gc.collect()
    if probe is not None:
        seconds, host, result = speed.normalised(fn, probe)
        return Timing(seconds, host), result
    start = now()
    result = fn()
    host = now() - start
    return Timing(host, host), result


def median_s(timings: list[Timing]) -> float:
    return statistics.median(t.seconds for t in timings)


def repeat_for(seconds: float, fn) -> list:
    """Call ``fn`` until ``seconds`` have passed (at least once)."""
    results, start = [], now()
    while not results or now() - start < seconds:
        results.append(fn())
    return results


def purge_program() -> None:
    """Forget every imported ``repro`` module, so the next import runs
    the package's module code again (and starts with cold caches)."""
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def medians(samples: list[dict]) -> dict:
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class ServingBench:
    """One serving workload driven through ``repro.api.Deployment``."""

    def __init__(self, name: str, seed: int, probed: bool) -> None:
        self.workload = SERVING[name]
        self.spec = self.workload.spec(seed)
        self.offered_qps = self.spec["workload"]["qps"]
        self.probe = speed.INTERPRETER if probed else None
        self.setups: list[tuple[Timing, dict]] = []

    def setup(self) -> None:
        """Import the program, build the engine and the trace."""
        purge_program()

        def build() -> dict[str, float]:
            t0 = now()
            api = importlib.import_module("repro.api")
            t1 = now()
            deployment = api.Deployment(
                api.DeploymentSpec.from_dict(self.spec))
            deployment.build_engine()
            t2 = now()
            trace = deployment.build_trace()
            t3 = now()
            self.api, self.deployment, self.trace = api, deployment, trace
            return {"setup.import_s": t1 - t0,
                    "setup.build_engine_s": t2 - t1,
                    "setup.build_trace_s": t3 - t2}

        self.setups.append(timed(build, self.probe))

    @property
    def offered(self) -> int:
        return len(self.trace)

    def run_pass(self, deployment=None) -> tuple[Timing, dict | None]:
        """One ``Deployment.run`` over the trace: (timing, report payload
        or ``None`` when it raised)."""
        deployment = deployment or self.deployment

        def serve() -> dict | None:
            try:
                return deployment.run(self.trace).to_dict()
            except Exception:
                traceback.print_exc()
                return None

        return timed(serve, self.probe)

    def failed_requests(self, report: dict | None, reference: str | None
                        ) -> int:
        """Offered requests this pass did not serve correctly: all of
        them when it raised or its report differs from the reference,
        else the ones it did not complete."""
        if report is None or digest(report) != reference:
            return self.offered
        return self.offered - report["completed"]

    def sanitized_matches(self, reference: str | None) -> bool:
        """Replay under ``serving.sanitize``: no violation, and a report
        identical to the plain run's."""
        spec = copy.deepcopy(self.spec)
        spec["serving"]["sanitize"] = True
        deployment = self.api.Deployment(
            self.api.DeploymentSpec.from_dict(spec))
        _, report = self.run_pass(deployment)
        return report is not None and digest(report) == reference


def model_stats(report: dict | None) -> dict[str, float]:
    """Modeled serving statistics from one report (``model.*``)."""
    if report is None:
        return {}
    cluster = report.get("cluster") or {}
    if "comm_fraction_per_step" in cluster:
        comm = cluster["comm_fraction_per_step"]["p50"]
    elif report.get("pools"):
        pools = report["pools"].values()
        busy = sum(p["busy_s"] for p in pools)
        comm = sum(p["comm_s"] for p in pools) / busy if busy else 0.0
    else:
        comm = 0.0
    transfer = report.get("transfer") or {}
    return {
        "model.steps": report["steps"],
        "model.preemptions": report["preemptions"],
        "model.ttft_p50_s": report["ttft_s"]["p50"],
        "model.ttft_p99_s": report["ttft_s"]["p99"],
        "model.tpot_p50_s": report["tpot_s"]["p50"],
        "model.tpot_p99_s": report["tpot_s"]["p99"],
        "model.qps_sustained": report["qps_sustained"],
        "model.comm_fraction_p50": comm,
        "model.transfer_s_p99": transfer.get("seconds", {}).get("p99", 0.0),
        "transfer.count": transfer.get("transfers", 0),
        "transfer.kv_bytes": transfer.get("bytes_total", 0.0),
    }


def layer_stats(tracer: Tracer, steps: int, elapsed: float
                ) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass that took
    ``elapsed`` host seconds."""
    self_s, calls, c = (tracer.layer_self_s(), tracer.layer_calls(),
                        tracer.counters)
    planned = c.get("batcher.steps_planned", 0)
    grows = c.get("ledger.grows", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "events.dispatched": c.get("events.dispatched", 0),
        "events.self_s": self_s["events"],
        "engine.self_s": self_s["engine"],
        "engine.steps": steps,
        "engine.fast_path_share": 1.0 - ratio(planned, steps) if steps
        else 0.0,
        "batcher.plan_calls": calls["batcher"],
        "batcher.self_s": self_s["batcher"],
        "batcher.step_tokens_mean":
            ratio(c.get("batcher.step_tokens", 0), planned),
        "pricer.calls": calls["pricer"],
        "pricer.self_s": self_s["pricer"],
        "pricer.memo_hit_ratio":
            ratio(c.get("pricer.memo_hits", 0), calls["pricer"]),
        "selector.calls": calls["selector"],
        "selector.self_s": self_s["selector"],
        "costmodel.calls": calls["costmodel"],
        "costmodel.self_s": self_s["costmodel"],
        "pruning.calls": calls["pruning"],
        "pruning.self_s": self_s["pruning"],
        "ledger.calls": calls["ledger"],
        "ledger.self_s": self_s["ledger"],
        "ledger.grow_fail_ratio": ratio(c.get("ledger.grow_fails", 0),
                                        grows),
        "ledger.peak_residents": c.get("ledger.peak_residents", 0),
        "scheduling.victim_calls": c.get("scheduling.victim_calls", 0),
        "scheduling.self_s": self_s["scheduling"],
        "gate.deferrals": c.get("gate.deferrals", 0),
        "metrics.observe_calls": c.get("metrics.observe_calls", 0),
        "metrics.self_s": self_s["metrics"],
        "metrics.summarise_s": self_s["summarise"],
        "router.calls": calls["router"],
        "router.self_s": self_s["router"],
        "deploy.self_s": self_s["deploy"],
        "figures.self_s": self_s["figures"],
        "trace.unattributed_s": elapsed - sum(self_s.values()),
    }


#: Gap value reported when an experiment a gap needs did not produce
#: its rows (the run is then also marked incorrect).
UNMEASURED = 1e9


def summarise_run(*, traced: bool, setups: list, passes: list[Timing],
                  traced_passes: list[Timing], layers: list[dict],
                  work: int, host_peak: int, attempted: int, failed: int,
                  gaps: dict[str, float], record: dict) -> dict:
    """The run's metrics (end-to-end, or per-layer when traced) and its
    result line.  ``setups`` are :func:`timed` results of the set-ups,
    ``passes`` the timings of the untraced passes, ``work`` the units
    one pass serves.  Times are medians over the repeats."""
    run_s = median_s(passes)
    setup_s = median_s([timing for timing, _ in setups])
    record["pass_s"] = [t.seconds for t in passes]
    record["pass_host_s"] = [t.host for t in passes]
    record["setup_s"] = [timing.seconds for timing, _ in setups]
    if traced:
        traced_s = median_s(traced_passes)
        layer = medians(layers)
        record["traced_pass_s"] = [t.seconds for t in traced_passes]
        # Within the overhead, or within 1% of the traced pass when the
        # overhead is lost in host noise (paper-figures barely has any).
        record["unattributed_within_overhead"] = (
            layer["trace.unattributed_s"]
            <= max(traced_s - run_s, 0.01 * traced_s))
        metrics = {**medians([part for _, part in setups]),
                   **layer, "tracing.overhead": traced_s / run_s,
                   "trace.run_s": traced_s, "trace.untraced_run_s": run_s}
    else:
        metrics = {"sim_req_per_s": work / run_s, "run_s": run_s,
                   "setup_s": setup_s, "host_peak_bytes": host_peak,
                   "completed_share": (attempted - failed) / attempted,
                   **{m: gaps.get(m, UNMEASURED) for m in paper.CLAIMS}}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "record": record, "correct": failed == 0}


def run_serving(name: str, seed: int, seconds: float, traced: bool
                ) -> dict:
    bench = ServingBench(name, seed, probed=not traced)
    for _ in range(SETUP_REPEATS):
        bench.setup()
    _, reference_report = bench.run_pass()          # warm-up, untimed
    reference = (digest(reference_report)
                 if reference_report is not None else None)
    passes = repeat_for(seconds / 2 if traced else seconds, bench.run_pass)
    untraced = [timing for timing, _ in passes]
    host_peak = peak_rss_bytes()
    # The second set-up group re-imports the program; everything below
    # runs on that import.
    for _ in range(SETUP_REPEATS):
        bench.setup()
    sanitized_ok = bench.sanitized_matches(reference)
    offered = bench.offered
    record: dict = {"offered": offered, "report_digest": reference,
                    "sanitized_replay_matches": sanitized_ok}
    stats = {**model_stats(reference_report), "offered": offered}
    traced_passes, layers, gaps = [], [], {}
    if traced:
        # Heap per simulated step, from one untimed pass under
        # tracemalloc (peak heap of the run over its steps).
        tracemalloc.start()
        passes.append(bench.run_pass())
        heap_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracer = Tracer()
        install(tracer)
        steps = stats.get("model.steps", 0)

        def traced_pass():
            tracer.reset()
            timing, report = bench.run_pass()
            passes.append((timing, report))
            traced_passes.append(timing)
            layers.append(layer_stats(tracer, steps, timing.host))

        repeat_for(seconds / 2, traced_pass)
        tracer.write(OUT / f"spans-{name}.tsv")
        stats.update(medians(layers))
        stats["metrics.heap_bytes_per_step"] = (heap_peak / steps if steps
                                                else 0.0)
    else:
        gaps, record["paper_rows"] = paper_gaps()
    attempted = offered * len(passes)
    failed = sum(bench.failed_requests(r, reference) for _, r in passes)
    if not sanitized_ok:
        failed = attempted
    record["checks"] = bench.workload.character(stats, bench.offered_qps)
    record["model"] = {k: v for k, v in stats.items()
                       if k.startswith(("model.", "transfer."))}
    result = summarise_run(
        traced=traced, setups=bench.setups, passes=untraced,
        traced_passes=traced_passes, layers=layers, work=offered,
        host_peak=host_peak, attempted=attempted, failed=failed,
        gaps=gaps, record=record)
    if traced:
        result["metrics"].update(
            {k: v for k, v in stats.items() if k != "offered"})
    return result


def paper_gaps() -> tuple[dict[str, float], list[dict]]:
    """The paper-gap metrics from the experiments they are defined on."""
    figures = importlib.import_module("repro.bench.figures")
    results = {e: figures.run_experiment(e) for e in paper.EXPERIMENTS}
    return paper.gaps(results)


# ----------------------------------------------------------------------
# Paper experiments
# ----------------------------------------------------------------------
def figures_setup(probed: bool) -> tuple[Timing, dict]:
    """Import the experiments into a program with cold caches."""
    purge_program()

    def load() -> dict[str, float]:
        t0 = now()
        importlib.import_module("repro.bench.figures")
        return {"setup.import_s": now() - t0, "setup.build_engine_s": 0.0,
                "setup.build_trace_s": 0.0}

    return timed(load, speed.INTERPRETER if probed else None)


def figures_pass(tracer: Tracer | None = None) -> dict:
    """Every experiment ``run_experiment`` knows, in a freshly imported
    program: timing, results, and a digest of each report.  Only an
    untraced pass is probed."""
    probed = tracer is None
    figures_setup(probed)
    figures = importlib.import_module("repro.bench.figures")
    if tracer is not None:
        install(tracer)
        tracer.reset()
    results: dict = {}

    def run_all() -> None:
        for experiment in figures.EXPERIMENTS:
            try:
                results[experiment] = figures.run_experiment(experiment)
            except Exception:
                traceback.print_exc()

    timing, _ = timed(tracer.wrap("figures", run_all) if tracer
                      else run_all, speed.NUMPY if probed else None)
    out = {"timing": timing, "results": results,
           "count": len(figures.EXPERIMENTS),
           "texts": {e: digest(r.text) for e, r in results.items()
                     if r.text and r.data}}
    if tracer is not None:
        out["layers"] = layer_stats(tracer, 0, timing.host)
    return out


def pass_gaps(p: dict) -> tuple[dict[str, float], list[dict]] | None:
    try:
        return paper.gaps(p["results"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        traceback.print_exc()
        return None


def run_figures(seed: int, seconds: float, traced: bool) -> dict:
    del seed                 # the paper's experiments have fixed inputs
    setups = [figures_setup(not traced) for _ in range(SETUP_REPEATS)]
    passes = repeat_for(seconds / 2 if traced else seconds, figures_pass)
    host_peak = peak_rss_bytes()
    setups += [figures_setup(not traced) for _ in range(SETUP_REPEATS)]
    traced_passes = []
    if traced:
        tracer = Tracer()
        traced_passes = repeat_for(seconds / 2,
                                   lambda: figures_pass(tracer))
        tracer.write(OUT / f"spans-{PAPER_FIGURES}.tsv")
    everything = passes + traced_passes
    reference = everything[0]["texts"]
    # An experiment fails when it raised, or its report differs from the
    # first pass's; every pass must give the same paper gaps.
    failed = sum(p["count"] - sum(1 for e, d in p["texts"].items()
                                  if reference.get(e) == d)
                 for p in everything)
    attempted = sum(p["count"] for p in everything)
    gap_sets = [pass_gaps(p) for p in everything]
    if any(g is None or g[0] != gap_sets[0][0] for g in gap_sets):
        failed = attempted
    gaps, rows = gap_sets[0] or ({}, [])
    record = {"experiments": everything[0]["count"],
              "report_digests": reference, "paper_rows": rows,
              "checks": {"no_experiment_failed": failed == 0}}
    return summarise_run(
        traced=traced, setups=setups,
        passes=[p["timing"] for p in passes],
        traced_passes=[p["timing"] for p in traced_passes],
        layers=[p["layers"] for p in traced_passes],
        work=everything[0]["count"], host_peak=host_peak,
        attempted=attempted, failed=failed, gaps=gaps, record=record)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
#: Per-layer metrics a run reports as 0 when its workload never enters
#: the layer (model.* on paper-figures, for instance).
PER_LAYER_DEFAULTS = (
    "model.steps", "model.preemptions", "model.ttft_p50_s",
    "model.ttft_p99_s", "model.tpot_p50_s", "model.tpot_p99_s",
    "model.qps_sustained", "model.comm_fraction_p50",
    "model.transfer_s_p99", "transfer.count", "transfer.kv_bytes",
    "metrics.heap_bytes_per_step")


def load_metric_units() -> dict[str, dict[str, str]]:
    """name -> unit, for the end-to-end and per-layer metric sets."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (imported once, outside every set-up)

    traced = bool(args.trace)
    if args.workload == PAPER_FIGURES:
        result = run_figures(args.seed, args.seconds, traced)
    else:
        result = run_serving(args.workload, args.seed, args.seconds, traced)

    units = load_metric_units()["per_layer" if traced else "end_to_end"]
    measured = result["metrics"]
    if traced:
        for name in PER_LAYER_DEFAULTS:
            measured.setdefault(name, 0)
    measured["check.character_ok"] = float(
        all(result["record"]["checks"].values()))
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in units.items()}

    host = importlib.import_module("repro.utils.host").host_metadata()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              **result["record"], "metrics": measured}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']!r:>24} {metric['unit']}",
              file=sys.stderr)
    print(f"checks: {result['record']['checks']}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
