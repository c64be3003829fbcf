"""Command-line interface: ``python -m repro.bench`` (or ``repro bench``).

Subcommands:

* ``experiments [ids...]`` — run paper experiments (default: all 14);
* ``kernels --m --k --n [--gpu]`` — one-off kernel comparison;
* ``tune --m --k --n [--gpu]`` — autotune the Samoyeds kernel;
* ``roofline --m --k --n [--gpu]`` — place every kernel on the roofline;
* ``maxbatch [--gpu] [--seq]`` — Table-3 style memory report;
* ``serve --engines a,b --workload poisson`` — continuous-batching serving
  simulation comparing engines under identical traffic (JSON report);
  ``--parallel ep=4,tp=2`` shards the server over a device grid;
* ``scale --devices 1,2,4,8`` — strong/weak scaling sweep over device
  counts (QPS, TTFT/TPOT and communication fraction per point);
* ``disagg config.yaml --splits 1:1,2:1`` — pool-split sweep over a
  disaggregated config: each point replicates the config's
  prefill/decode pool templates, charting TTFT/TPOT against the split
  next to a colocated reference row;
* ``run config.yaml`` — execute a declarative deployment config file
  (single run or ``sweep:`` grid; see :mod:`repro.api`);
* ``sim [--quick] [--check baseline.json]`` — benchmark the simulator
  itself: replay synthetic traces through the event-calendar core in
  pairs with an in-process calibration loop, emit ``BENCH_sim.json``
  with simulated-requests/sec, steps/sec and simulated requests per
  million calibration operations, optionally gating the latter on a
  checked-in baseline (see :mod:`repro.bench.simbench`);
* ``sweepbench [--jobs N] [--check baseline.json]`` — benchmark the
  parallel experiment executor: the fixed 32-point grid serial vs
  fanned over ``--jobs`` worker processes, emitting
  ``BENCH_sweep.json`` (see :mod:`repro.bench.sweepbench`).

``run``, ``scale`` and ``disagg`` execute their points through one
:class:`~repro.exec.PointRunner`: in-process by default, over ``--jobs
N`` worker processes on request.  Payloads are byte-identical either
way, results always land in grid order, and an infeasible or crashed
point fails alone (see :mod:`repro.exec`).

Exit codes: 2 for a usage error (a bad flag or config), 1 when a sweep
point crashed (after the payload is written), 0 otherwise — an
infeasible point is an ``error`` entry in the payload, not a failure.

``serve`` and ``scale`` are thin shims over
:class:`repro.api.DeploymentSpec`: every flag maps to a spec field (the
DESIGN.md migration table lists the pairs), and ``run`` executes the
same specs straight from YAML/JSON files.
"""

from __future__ import annotations

import argparse
import sys

from repro.api.spec import ENGINE_ALIASES  # canonical alias map
from repro.bench.figures import EXPERIMENTS, run_experiment
from repro.bench.report import render_json, render_table
from repro.errors import CapacityError, ConfigError
from repro.hw.interconnect import list_links
from repro.hw.roofline import place, render
from repro.hw.spec import get_gpu, list_gpus
from repro.kernels import KERNELS
from repro.kernels.autotuner import tune
from repro.moe.config import MODEL_REGISTRY
from repro.moe.memory_model import max_batch_size
from repro.utils.rng import DEFAULT_SEED
from repro.utils.units import format_seconds


def _add_gpu_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gpu", default="rtx4070s", choices=list_gpus(),
                        help="target device (default: rtx4070s)")


def _add_problem_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=4096)
    parser.add_argument("--k", type=int, default=4096)
    parser.add_argument("--n", type=int, default=4096)


def _add_jobs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep points "
                             "(1 = serial; payloads are byte-identical "
                             "either way)")


def _bad_problem(args: argparse.Namespace) -> bool:
    """Reject a non-positive ``--m``/``--k``/``--n`` as a usage error."""
    for dim in ("m", "k", "n"):
        if getattr(args, dim) < 1:
            print(f"repro bench {args.command}: --{dim} must be positive",
                  file=sys.stderr)
            return True
    return False


def _emit(args: argparse.Namespace, payload: dict, results=()) -> int:
    """Write the JSON payload; exit 1 if any sweep point crashed."""
    text = render_json(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 1 if any(result.crashed for result in results) else 0


def cmd_experiments(args: argparse.Namespace) -> int:
    wanted = args.ids or list(EXPERIMENTS)
    for experiment in wanted:
        result = run_experiment(experiment)
        print(result.text)
        print()
    return 0


def cmd_kernels(args: argparse.Namespace) -> int:
    if _bad_problem(args):
        return 2
    spec = get_gpu(args.gpu)
    rows = []
    sam = KERNELS["samoyeds"].cost(args.m, args.k, args.n, spec)
    for name, kernel in KERNELS.items():
        cost = kernel.cost(args.m, args.k, args.n, spec)
        rows.append([name, format_seconds(cost.time_s),
                     f"{cost.tflops:.1f}",
                     f"{cost.time_s / sam.time_s:.2f}x"])
    print(render_table(
        ["kernel", "time", "TFLOP/s", "vs samoyeds"], rows,
        title=f"{args.m}x{args.k}x{args.n} on {spec.name}"))
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    if _bad_problem(args):
        return 2
    spec = get_gpu(args.gpu)
    result = tune(KERNELS["samoyeds"], args.m, args.k, args.n, spec,
                  subrow_v=32)
    cfg = result.config
    print(f"best config on {spec.name}: mb={cfg.mb} nb={cfg.nb} "
          f"kb={cfg.kb} mw={cfg.mw} nw={cfg.nw} stages={cfg.stages}")
    print(f"tuned {format_seconds(result.seconds)} vs heuristic "
          f"{format_seconds(result.heuristic_seconds)} "
          f"({result.gain_over_heuristic:.2f}x, "
          f"{result.candidates} candidates searched)")
    return 0


def cmd_roofline(args: argparse.Namespace) -> int:
    if _bad_problem(args):
        return 2
    spec = get_gpu(args.gpu)
    points = []
    # Pattern levels skipped beyond the hardware 2:4 raise a kernel's
    # *effective* compute roof: sub-row selection (Samoyeds) and column
    # selection (VENOM) both skip half the work at 75% sparsity.
    skip = {"samoyeds": 2.0, "venom": 2.0}
    for name, kernel in KERNELS.items():
        cost = kernel.cost(args.m, args.k, args.n, spec)
        sparse = name in ("samoyeds", "venom", "cusparselt")
        points.append(place(cost, spec, sparse=sparse,
                            zero_skip_factor=skip.get(name, 1.0)))
    print(render(points))
    return 0


def cmd_maxbatch(args: argparse.Namespace) -> int:
    if args.seq < 1:
        print("repro bench maxbatch: --seq must be positive",
              file=sys.stderr)
        return 2
    spec = get_gpu(args.gpu)
    engines = ["transformers", "megablocks", "vllm-ds", "samoyeds"]
    rows = []
    for name, cfg in MODEL_REGISTRY.items():
        row: list[object] = [name]
        for engine in engines:
            try:
                row.append(max_batch_size(cfg, engine, args.seq, spec))
            except (CapacityError, ConfigError):
                # Genuine OOM / unsupported model-engine pair; anything
                # else is a bug and should surface, not render as None.
                row.append(None)
        rows.append(row)
    print(render_table(["model", *engines], rows,
                       title=f"max batch at seq {args.seq} on {spec.name}"))
    return 0


def _parse_pools(raw: str) -> list[dict[str, str]]:
    """Parse the ``--pools`` flag: comma-separated
    ``name:role[:gpu[:engine]]`` entries, e.g.
    ``pf:prefill:h100,dc:decode:w7900:vllm``.  Omitted gpu/engine
    inherit the deployment defaults; full validation happens in
    :class:`~repro.serve.disagg.PoolSpec` with path-qualified errors.
    """
    pools = []
    for entry in raw.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) < 2 or len(parts) > 4:
            raise ConfigError(
                f"bad --pools entry {entry!r}; expected "
                f"name:role[:gpu[:engine]]")
        pool: dict[str, str] = {"name": parts[0], "role": parts[1]}
        if len(parts) > 2 and parts[2]:
            pool["gpu"] = parts[2]
        if len(parts) > 3 and parts[3]:
            pool["engine"] = ENGINE_ALIASES.get(parts[3], parts[3])
        pools.append(pool)
    if not pools:
        raise ConfigError("--pools must name at least one pool")
    return pools


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import Deployment, DeploymentSpec
    from repro.errors import ReproError
    from repro.hw.interconnect import parse_parallel
    from repro.moe.layers import ENGINES
    from repro.serve.metrics import REPORT_HEADERS

    try:
        plan = parse_parallel(args.parallel)
    except ConfigError as exc:
        print(f"repro bench serve: bad --parallel: {exc}", file=sys.stderr)
        return 2
    if plan.dp > 1:
        # Usage error, not per-engine infeasibility: replicas serve
        # disjoint streams, so simulate them as separate invocations.
        print("repro bench serve: --parallel dp>1 is not served by one "
              "engine; run one serve per replica", file=sys.stderr)
        return 2
    engines = []
    for raw in args.engines.split(","):
        name = ENGINE_ALIASES.get(raw.strip(), raw.strip())
        if name not in ENGINES:
            known = ", ".join([*ENGINES, *ENGINE_ALIASES])
            print(f"repro bench serve: unknown engine {raw.strip()!r}; "
                  f"known: {known}", file=sys.stderr)
            return 2
        if name not in engines:       # aliases can collide (vllm,vllm-ds)
            engines.append(name)
    if args.page_size < 0:
        # A bad flag is a usage error, not per-engine infeasibility.
        print("repro bench serve: --page-size must be >= 0",
              file=sys.stderr)
        return 2
    try:
        base = DeploymentSpec.from_dict({
            "model": {"name": args.model, "num_layers": args.layers},
            "hardware": {"gpu": args.gpu, "link": args.link,
                         "parallel": plan, "streams": args.streams},
            "serving": {"batcher": args.batcher,
                        "token_budget": args.token_budget,
                        "batch_size": args.batch_size,
                        "page_size": args.page_size or None,
                        "placement": args.placement,
                        "horizon_s": args.horizon,
                        "scheduler": args.scheduler,
                        "sanitize": args.sanitize,
                        # Disagg keys only when --pools is given, so
                        # colocated spec payloads keep their shape.
                        **({"pools": _parse_pools(args.pools),
                            "router": args.router,
                            "transfer_link": args.transfer_link}
                           if args.pools else {})},
            "workload": {"kind": args.workload,
                         "requests": args.requests,
                         "qps": args.qps,
                         "prompt_tokens": args.prompt_tokens,
                         "output_tokens": args.output_tokens,
                         "eos_sampling": args.eos_sampling,
                         "seed": args.seed,
                         "trace_path": args.trace_path},
        })
        # One trace serves every engine: identical traffic per engine.
        trace = Deployment(base).build_trace()
    except ConfigError as exc:
        print(f"repro bench serve: invalid configuration: {exc}",
              file=sys.stderr)
        return 2

    reports = []
    rows = []
    for name in engines:
        deployment = Deployment(
            base.with_overrides({"model.engine": name}))
        try:
            report = deployment.run(trace)
        except ReproError as exc:
            print(f"# {name}: infeasible ({exc})", file=sys.stderr)
            reports.append({"engine": name, "error": str(exc)})
            continue
        reports.append(report.to_dict())
        rows.append(report.summary_row())
    if rows:
        print(render_table(
            REPORT_HEADERS, rows,
            title=(f"{args.model} on {args.gpu}: {args.workload} "
                   f"trace, {args.requests} requests at {args.qps} "
                   f"QPS")),
            file=sys.stderr)
    payload = {
        "model": args.model,
        "gpu": args.gpu,
        "trace": args.workload,
        "qps_offered": args.qps,
        "requests": args.requests,
        "seed": args.seed,
        "batcher": args.batcher,
        "page_size": args.page_size,
        "eos_sampling": args.eos_sampling,
        # Single-GPU payloads stay byte-identical to the pre-cluster
        # format: the parallel section appears only for device grids.
        **({"parallel": plan.to_dict(), "link": args.link}
           if not plan.is_trivial else {}),
        "engines": reports,
    }
    return _emit(args, payload)


def _status(result) -> str:
    """A sweep point's outcome as a human-readable phrase."""
    if result.ok:
        return "ok"
    return (result.error if result.crashed
            else f"infeasible ({result.error})")


def _progress_line(result, done: int, total: int) -> None:
    """One stderr line per completed sweep point."""
    print(f"# [{done}/{total}] {result.label or 'base'}: "
          f"{_status(result)}", file=sys.stderr)


def _run_points(args: argparse.Namespace, specs, labels):
    """Run the sweep points on ``--jobs`` workers (grid-ordered
    results; a crashed point is contained to its own result)."""
    from repro.exec import PointRunner

    return PointRunner(jobs=args.jobs,
                       progress=_progress_line).run(specs, labels)


def cmd_scale(args: argparse.Namespace) -> int:
    from repro.api import DeploymentSpec
    from repro.serve.metrics import ServeReport

    if args.mode not in ("ep", "tp"):
        print("repro bench scale: --mode must be ep or tp",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("repro bench scale: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        devices = [int(d) for d in args.devices.split(",") if d.strip()]
    except ValueError:
        print(f"repro bench scale: bad --devices {args.devices!r}; "
              f"expected a comma-separated list of ints", file=sys.stderr)
        return 2
    if not devices or any(d <= 0 for d in devices):
        print("repro bench scale: device counts must be positive",
              file=sys.stderr)
        return 2
    try:
        base = DeploymentSpec.from_dict({
            "model": {"name": args.model, "engine": args.engine,
                      "num_layers": args.layers},
            "hardware": {"gpu": args.gpu, "link": args.link},
            "serving": {"horizon_s": args.horizon},
            "workload": {"requests": args.requests, "qps": args.qps,
                         "prompt_tokens": args.prompt_tokens,
                         "output_tokens": args.output_tokens,
                         "seed": args.seed},
        })
    except ConfigError as exc:
        print(f"repro bench scale: invalid configuration: {exc}",
              file=sys.stderr)
        return 2

    def point_payload(spec: DeploymentSpec, count: int, factor: int,
                      report: ServeReport) -> dict[str, object]:
        cluster = report.cluster or {}
        return {
            "devices": count,
            "parallel": spec.hardware.parallel.describe(),
            "qps_offered": args.qps * factor,
            "completed": report.completed,
            "qps_sustained": report.qps_sustained,
            "output_tokens_per_s": report.output_tokens_per_s,
            "ttft_s": report.ttft_s.to_dict(),
            "tpot_s": report.tpot_s.to_dict(),
            "comm_fraction": cluster.get("comm_fraction", 0.0),
            "experts_per_device": cluster.get("experts_per_device"),
        }

    # Run every (count, series) point, then reassemble the strong and
    # weak series in device order.
    specs, labels, meta = [], [], []
    for pos, count in enumerate(devices):
        for series, scale_load in (("strong", False), ("weak", True)):
            if scale_load and count == 1:
                continue              # same point as strong at 1 device
            factor = count if scale_load else 1
            spec = base.with_overrides({
                "hardware.parallel": f"{args.mode}={count}",
                "workload.requests": args.requests * factor,
                "workload.qps": args.qps * factor,
            })
            specs.append(spec)
            labels.append(f"{count} devices ({series})")
            meta.append((series, pos, count, factor, spec))
    results = _run_points(args, specs, labels)
    table: dict[tuple[str, int], dict[str, object]] = {}
    for (series, pos, count, factor, spec), result in zip(meta, results):
        if result.error is not None:
            table[(series, pos)] = {"devices": count,
                                    "error": result.error}
        else:
            table[(series, pos)] = point_payload(
                spec, count, factor, ServeReport.from_dict(result.report))
    strong: list[dict[str, object]] = []
    weak: list[dict[str, object]] = []
    for pos, count in enumerate(devices):
        strong.append(table[("strong", pos)])
        weak.append(dict(strong[-1]) if count == 1
                    else table[("weak", pos)])

    # Speedups are only meaningful relative to the smallest swept device
    # count; if that point errored, print "-" rather than rebasing.
    smallest = min(strong, key=lambda p: p["devices"]) if strong else None
    base = smallest if smallest and "error" not in smallest else None
    rows = []
    for s, w in zip(strong, weak):
        if "error" in s:
            rows.append([s["devices"], "-", "-", "-", "-", "-"])
            continue
        speedup = ("-" if base is None or not base["qps_sustained"]
                   else f"{s['qps_sustained'] / base['qps_sustained']:.2f}x")
        rows.append([s["devices"],
                     f"{s['qps_sustained']:.2f}",
                     speedup,
                     ("-" if "error" in w
                      else f"{w['qps_sustained']:.2f}"),
                     f"{s['ttft_s']['p50'] * 1e3:.1f}",
                     f"{s['comm_fraction'] * 100:.1f}%"])
    print(render_table(
        ["devices", "strong qps", "speedup", "weak qps", "ttft p50 ms",
         "comm"],
        rows,
        title=(f"{args.model}/{args.engine} {args.mode} scaling on "
               f"{args.gpu} over {args.link}")), file=sys.stderr)

    payload = {
        "model": args.model,
        "engine": args.engine,
        "gpu": args.gpu,
        "mode": args.mode,
        "link": args.link,
        "qps_offered": args.qps,
        "requests": args.requests,
        "seed": args.seed,
        "strong": strong,
        "weak": weak,
    }
    return _emit(args, payload, results)


def _sweep_row(label: str, report) -> list[object]:
    """One ``run`` sweep-table row."""
    return [label, report.completed,
            f"{report.qps_sustained:.2f}",
            f"{report.output_tokens_per_s:.0f}",
            f"{report.ttft_s.p50 * 1e3:.1f}",
            f"{report.tpot_s.p50 * 1e3:.2f}"]


def cmd_run(args: argparse.Namespace) -> int:
    from repro.api import load_sweep
    from repro.serve.metrics import REPORT_HEADERS, ServeReport

    if args.jobs < 1:
        print("repro bench run: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        base, points = load_sweep(args.config)
    except ConfigError as exc:
        print(f"repro bench run: {exc}", file=sys.stderr)
        return 2

    title = (f"{base.model.name} on {base.hardware.gpu} "
             f"({args.config})")
    results = _run_points(args, [p.spec for p in points],
                          [p.describe() for p in points])
    # A no-sweep config loads as exactly one override-free point.
    if len(points) == 1 and not points[0].overrides:
        # Single run: the payload IS the report (a plain
        # `ServeReport.to_dict()`).
        [result] = results
        if result.error is not None:
            print(f"repro bench run: {_status(result)}", file=sys.stderr)
            return 1
        print(render_table(
            REPORT_HEADERS,
            [ServeReport.from_dict(result.report).summary_row()],
            title=title), file=sys.stderr)
        return _emit(args, result.report)
    entries: list[dict[str, object]] = []
    rows = []
    for point, result in zip(points, results):
        entry = {"overrides": dict(point.overrides)}
        if result.error is not None:
            entry["error"] = result.error
        else:
            entry["report"] = result.report
            rows.append(_sweep_row(point.describe(),
                                   ServeReport.from_dict(result.report)))
        entries.append(entry)
    if rows:
        print(render_table(
            ["point", "done", "qps", "tok/s", "ttft p50 ms",
             "tpot p50 ms"], rows, title=title), file=sys.stderr)
    payload = {"config": args.config, "base": base.to_dict(),
               "sweep": entries}
    return _emit(args, payload, results)


def cmd_disagg(args: argparse.Namespace) -> int:
    """Pool-split sweep: TTFT/TPOT curves vs prefill:decode pool
    counts, with a colocated reference point."""
    from repro.api import Deployment
    from repro.api.loader import load_deployment
    from repro.serve.metrics import ServeReport

    if args.jobs < 1:
        print("repro bench disagg: --jobs must be >= 1",
              file=sys.stderr)
        return 2
    try:
        base = load_deployment(args.config)
    except ConfigError as exc:
        print(f"repro bench disagg: {exc}", file=sys.stderr)
        return 2
    pools = base.serving.pools
    if not pools:
        print("repro bench disagg: config must declare serving.pools "
              "(a prefill and a decode pool template to replicate)",
              file=sys.stderr)
        return 2
    prefill = [p for p in pools if p.role == "prefill"]
    decode = [p for p in pools if p.role == "decode"]
    if not prefill or not decode or len(prefill) + len(decode) != len(pools):
        print("repro bench disagg: the pool-split sweep needs pure "
              "role=prefill and role=decode pool templates "
              "(role=both pools cannot be split by phase)",
              file=sys.stderr)
        return 2
    splits: list[tuple[int, int]] = []
    for entry in args.splits.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        try:
            np_, nd = (int(parts[0]), int(parts[1])) if len(parts) == 2 \
                else (None, None)
        except ValueError:
            np_ = nd = None
        if np_ is None or nd is None or np_ < 1 or nd < 1:
            print(f"repro bench disagg: bad --splits entry {entry!r}; "
                  f"expected prefill:decode counts like 2:1",
                  file=sys.stderr)
            return 2
        splits.append((np_, nd))
    if not splits:
        print("repro bench disagg: --splits named no split",
              file=sys.stderr)
        return 2

    def replicate(template, count: int) -> list[dict[str, object]]:
        if count == 1:
            return [template.to_dict()]
        out = []
        for i in range(count):
            payload = template.to_dict()
            payload["name"] = f"{template.name}{i}"
            out.append(payload)
        return out

    base_payload = base.to_dict()
    colo_payload = {k: dict(v) for k, v in base_payload.items()}
    for key in ("pools", "router", "transfer_link"):
        colo_payload["serving"].pop(key, None)
    specs = [Deployment.from_dict(colo_payload).spec]
    labels = ["colocated"]
    for np_, nd in splits:
        payload = {k: dict(v) for k, v in base_payload.items()}
        payload["serving"]["pools"] = [
            *[d for t in prefill for d in replicate(t, np_)],
            *[d for t in decode for d in replicate(t, nd)],
        ]
        specs.append(Deployment.from_dict(payload).spec)
        labels.append(f"{np_}:{nd}")

    entries: list[dict[str, object]] = []
    rows = []
    results = _run_points(args, specs, labels)
    for label, result in zip(labels, results):
        entry: dict[str, object] = {"split": label}
        if result.error is not None:
            entry["error"] = result.error
            rows.append([label, "-", "-", "-", "-", "-"])
        else:
            entry["report"] = result.report
            report = ServeReport.from_dict(result.report)
            transfer = report.transfer or {}
            rows.append([label, report.completed,
                         f"{report.qps_sustained:.2f}",
                         f"{report.ttft_s.p99 * 1e3:.1f}",
                         f"{report.tpot_s.p99 * 1e3:.2f}",
                         f"{transfer.get('seconds_total', 0.0):.4f}"])
        entries.append(entry)

    print(render_table(
        ["split (prefill:decode)", "done", "qps", "ttft p99 ms",
         "tpot p99 ms", "transfer s"], rows,
        title=(f"{base.model.name} pool-split sweep "
               f"({args.config}, router={base.serving.router}, "
               f"link={base.serving.transfer_link})")), file=sys.stderr)
    payload = {"config": args.config, "base": base_payload,
               "points": entries}
    return _emit(args, payload, results)


def cmd_sim(args: argparse.Namespace) -> int:
    from repro.bench import simbench

    requests = args.requests
    if requests is None:
        requests = (simbench.QUICK_REQUESTS if args.quick
                    else simbench.DEFAULT_REQUESTS)
    engine = ENGINE_ALIASES.get(args.engine.strip(), args.engine.strip())
    try:
        payload = simbench.run_benchmark(
            requests=requests, model=args.model, engine=engine,
            gpu=args.gpu, num_layers=args.layers, seed=args.seed)
        failure = (simbench.check_regression(payload, args.check,
                                             tolerance=args.tolerance)
                   if args.check else None)
    except ConfigError as exc:
        print(f"repro bench sim: {exc}", file=sys.stderr)
        return 2
    event = payload["event_core"]
    calibration = payload["calibration"]
    print(render_table(
        ["core", "requests", "steps", "wall s", "req/s", "steps/s"],
        [["event-calendar", event["requests"], event["steps"],
          f"{event['wall_s']:.2f}", f"{event['requests_per_s']:.0f}",
          f"{event['steps_per_s']:.0f}"]],
        title=(f"simulator throughput "
               f"({payload['normalised']['requests_per_mop']:.0f} "
               f"req per M calibration ops, median of "
               f"{simbench.PAIRS} pairs; calibration "
               f"{calibration['ops_per_s'] / 1e6:.2f} Mop/s)")),
        file=sys.stderr)
    text = render_json(payload)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    if failure:
        print(f"repro bench sim: {failure}", file=sys.stderr)
        return 1
    if args.check:
        print(f"repro bench sim: within {args.tolerance:.0%} of "
              f"baseline {args.check}", file=sys.stderr)
    return 0


def cmd_sweepbench(args: argparse.Namespace) -> int:
    from repro.bench import sweepbench

    if args.jobs < 1:
        print("repro bench sweepbench: --jobs must be >= 1",
              file=sys.stderr)
        return 2
    requests = args.requests
    if requests is None:
        requests = (sweepbench.QUICK_POINT_REQUESTS if args.quick
                    else sweepbench.DEFAULT_POINT_REQUESTS)
    try:
        payload = sweepbench.run_benchmark(jobs=args.jobs,
                                           requests=requests,
                                           seed=args.seed)
        failure = (sweepbench.check_regression(payload, args.check,
                                               tolerance=args.tolerance)
                   if args.check else None)
    except ConfigError as exc:
        print(f"repro bench sweepbench: {exc}", file=sys.stderr)
        return 2
    serial, parallel = payload["serial"], payload["parallel"]
    print(render_table(
        ["executor", "points", "errors", "wall s"],
        [["serial", serial["points"], serial["errors"],
          f"{serial['wall_s']:.2f}"],
         [f"--jobs {parallel['jobs']}", parallel["points"],
          parallel["errors"], f"{parallel['wall_s']:.2f}"]],
        title=(f"sweep executor throughput "
               f"(speedup {payload['speedup']['wall_clock']:.2f}x, "
               f"payloads identical: "
               f"{payload['payloads_identical']})")),
        file=sys.stderr)
    text = render_json(payload)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    if failure:
        print(f"repro bench sweepbench: {failure}", file=sys.stderr)
        return 1
    if args.check:
        cpus = payload["host"]["cpu_count"]
        if isinstance(cpus, int) and cpus < 2:
            print(f"repro bench sweepbench: host has {cpus} cpu(s); "
                  f"speedup gate skipped (determinism still checked)",
                  file=sys.stderr)
        else:
            print(f"repro bench sweepbench: within {args.tolerance:.0%} "
                  f"of baseline {args.check}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Samoyeds reproduction benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiments", help="run paper experiments")
    p.add_argument("ids", nargs="*", choices=[*EXPERIMENTS, []],
                   help="experiment ids (default: all)")
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser("kernels", help="compare kernels on one problem")
    _add_problem_args(p)
    _add_gpu_arg(p)
    p.set_defaults(fn=cmd_kernels)

    p = sub.add_parser("tune", help="autotune the Samoyeds kernel")
    _add_problem_args(p)
    _add_gpu_arg(p)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("roofline", help="roofline placement")
    _add_problem_args(p)
    _add_gpu_arg(p)
    p.set_defaults(fn=cmd_roofline)

    p = sub.add_parser("maxbatch", help="Table-3 memory report")
    p.add_argument("--seq", type=int, default=1024)
    _add_gpu_arg(p)
    p.set_defaults(fn=cmd_maxbatch)

    p = sub.add_parser("serve",
                       help="continuous-batching serving simulation")
    p.add_argument("--model", default="mixtral-8x7b",
                   choices=sorted(MODEL_REGISTRY))
    p.add_argument("--engines", default="samoyeds,vllm-ds",
                   help="comma-separated engines (vllm = vllm-ds)")
    p.add_argument("--workload", default="poisson",
                   help="workload kind from the WORKLOADS registry "
                        "(see `repro list workloads`)")
    p.add_argument("--trace-path", default=None,
                   help="CSV trace file for --workload trace")
    p.add_argument("--scheduler", default="youngest_first",
                   choices=["youngest_first", "priority_slack"],
                   help="preemption/queue policy (priority_slack "
                        "needs workload tenants, so it matters only "
                        "with config-driven runs or tenant traces)")
    p.add_argument("--qps", type=float, default=2.0,
                   help="offered load in requests/second")
    p.add_argument("--requests", type=int, default=48)
    p.add_argument("--prompt-tokens", type=int, default=512)
    p.add_argument("--output-tokens", type=int, default=32)
    p.add_argument("--batcher", default="continuous",
                   choices=["continuous", "chunked", "static"])
    p.add_argument("--token-budget", type=int, default=4096,
                   help="continuous/chunked batcher per-step token budget")
    p.add_argument("--batch-size", type=int, default=8,
                   help="static batcher batch size")
    p.add_argument("--page-size", type=int, default=0,
                   help="KV-cache page size in tokens; enables paged "
                        "admission with preemption (0 = conservative "
                        "whole-request reservation)")
    p.add_argument("--eos-sampling", action="store_true",
                   help="geometric EOS-sampled output lengths instead "
                        "of the uniform jitter band (seeded)")
    p.add_argument("--layers", type=int, default=None,
                   help="decoder layers per step (default: model's)")
    p.add_argument("--streams", type=int, default=1,
                   help="expert-segment streams (LPT overlap when > 1)")
    p.add_argument("--parallel", default=None,
                   help="device-parallel plan, e.g. ep=4,tp=2 "
                        "(default: single GPU)")
    p.add_argument("--link", default="nvlink", choices=list_links(),
                   help="interconnect joining the device grid")
    p.add_argument("--placement", default="balanced",
                   choices=["balanced", "round_robin"],
                   help="expert-to-device placement policy")
    p.add_argument("--horizon", type=float, default=None,
                   help="stop serving at this clock (seconds); "
                        "in-flight requests stay unfinished")
    p.add_argument("--sanitize", action="store_true",
                   help="run under the sim-sanitizer's runtime "
                        "invariant checks (same as REPRO_SANITIZE=1); "
                        "the report is byte-identical")
    p.add_argument("--pools", default=None,
                   help="disaggregated prefill/decode pools as "
                        "name:role[:gpu[:engine]] entries, e.g. "
                        "pf:prefill:h100,dc:decode:w7900:vllm "
                        "(default: colocated serving)")
    p.add_argument("--router", default="round_robin",
                   help="pool-assignment policy with --pools "
                        "(see `repro list routers`)")
    p.add_argument("--transfer-link", default="pcie4",
                   choices=list_links(),
                   help="link pricing the prefill->decode KV "
                        "migration with --pools (zero-copy = free)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", default=None,
                   help="write the JSON report here instead of stdout")
    _add_gpu_arg(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("scale",
                       help="strong/weak scaling sweep over device counts")
    p.add_argument("--model", default="mixtral-8x7b",
                   choices=sorted(MODEL_REGISTRY))
    p.add_argument("--engine", default="samoyeds",
                   help="engine to scale (default: samoyeds)")
    p.add_argument("--mode", default="ep", choices=["ep", "tp"],
                   help="which parallel degree the device count drives")
    p.add_argument("--devices", default="1,2,4,8",
                   help="comma-separated device counts to sweep")
    p.add_argument("--link", default="nvlink", choices=list_links(),
                   help="interconnect joining the device grid")
    p.add_argument("--qps", type=float, default=16.0,
                   help="offered load at one device (weak scaling "
                        "multiplies it by the device count)")
    p.add_argument("--requests", type=int, default=32)
    p.add_argument("--prompt-tokens", type=int, default=512)
    p.add_argument("--output-tokens", type=int, default=16)
    p.add_argument("--layers", type=int, default=None,
                   help="decoder layers per step (default: model's)")
    p.add_argument("--horizon", type=float, default=None,
                   help="per-point serving horizon in seconds")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", default=None,
                   help="write the JSON report here instead of stdout")
    _add_jobs_args(p)
    _add_gpu_arg(p)
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser(
        "disagg",
        help="pool-split sweep over a disaggregated config: replicate "
             "its prefill/decode pool templates per --splits point and "
             "chart TTFT/TPOT against the split, with a colocated "
             "reference row")
    p.add_argument("config",
                   help="deployment config with serving.pools "
                        "templates (see examples/configs/"
                        "disagg_pools.yaml)")
    p.add_argument("--splits", default="1:1,2:1,1:2",
                   help="comma-separated prefill:decode pool counts "
                        "(default: 1:1,2:1,1:2)")
    p.add_argument("--output", default=None,
                   help="write the JSON report here instead of stdout")
    _add_jobs_args(p)
    p.set_defaults(fn=cmd_disagg)

    p = sub.add_parser(
        "run", help="execute a deployment config file (YAML/JSON; "
                    "single run or sweep grid)")
    p.add_argument("config",
                   help="path to the config file (see examples/configs)")
    p.add_argument("--output", default=None,
                   help="write the JSON report here instead of stdout")
    _add_jobs_args(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "sweepbench",
        help="benchmark the parallel experiment executor (serial vs "
             "--jobs wall-clock on the fixed 32-point grid)")
    p.add_argument("--jobs", type=int, default=4,
                   help="worker processes for the parallel side "
                        "(default: 4, the benchmark protocol)")
    p.add_argument("--requests", type=int, default=None,
                   help="requests per grid point (default: 600, or "
                        "150 with --quick)")
    p.add_argument("--quick", action="store_true",
                   help="CI-sized run (smaller points, same grid and "
                        "therefore a comparable ratio)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--output", default="BENCH_sweep.json",
                   help="benchmark JSON path (default: BENCH_sweep.json)")
    p.add_argument("--check", default=None,
                   help="baseline JSON to gate the speedup ratio "
                        "against (benchmarks/BENCH_baseline.json)")
    p.add_argument("--tolerance", type=float, default=0.30,
                   help="allowed fractional drop below the baseline "
                        "speedup, in [0, 1) (default: 0.30)")
    p.set_defaults(fn=cmd_sweepbench)

    p = sub.add_parser(
        "sim", help="benchmark the simulator itself (event-calendar "
                    "core, normalised by an in-process calibration "
                    "loop)")
    p.add_argument("--requests", type=int, default=None,
                   help="total requests, split evenly over the "
                        "benchmark's calibration pairs (default: 100000, "
                        "or 3000 with --quick)")
    p.add_argument("--quick", action="store_true",
                   help="CI-sized run (smaller traces, same normalised "
                        "number)")
    p.add_argument("--model", default="mixtral-8x7b",
                   choices=sorted(MODEL_REGISTRY))
    p.add_argument("--engine", default="samoyeds",
                   help="MoE engine (registry name or alias; "
                        "default: samoyeds)")
    p.add_argument("--layers", type=int, default=1,
                   help="decoder layers per step (default: 1, the "
                        "paper's single-layer protocol)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", default="BENCH_sim.json",
                   help="benchmark JSON path (default: BENCH_sim.json)")
    p.add_argument("--check", default=None,
                   help="baseline JSON to gate the normalised number "
                        "against (benchmarks/BENCH_baseline.json)")
    p.add_argument("--tolerance", type=float, default=0.30,
                   help="allowed fractional drop below the baseline, "
                        "in [0, 1) (default: 0.30)")
    p.add_argument("--gpu", default="a100", choices=list_gpus(),
                   help="target device (default: a100)")
    p.set_defaults(fn=cmd_sim)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
