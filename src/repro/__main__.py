"""Top-level dispatcher: ``python -m repro`` / the ``repro`` script.

``repro bench <subcommand>`` forwards to :mod:`repro.bench.cli`, so the
installed console script mirrors the module entry point::

    repro bench serve --engines samoyeds,vllm --workload poisson
    python -m repro bench maxbatch --gpu a100

``repro list [kind]`` prints the plugin registries (engines, kernels,
gpus, links, models, workloads, routers) with their capability
metadata — the discovery side of the registry API::

    repro list engines
    repro list            # every registry

``repro lint [paths]`` runs the static invariant checker
(:mod:`repro.analysis`) over the given files/directories::

    repro lint src/
    repro lint src/repro/serve --select REP001 --format json
"""

from __future__ import annotations

import sys


def _registry_rows(kind: str) -> list[tuple[str, str]]:
    """(name, summary) rows of one registry, in registration order."""
    if kind == "engines":
        from repro.moe.layers import ENGINES
        return [(name, engine.capabilities().describe())
                for name, engine in ENGINES.items()]
    if kind == "kernels":
        from repro.kernels import KERNELS
        return [(name, kernel.capabilities().describe())
                for name, kernel in KERNELS.items()]
    if kind == "gpus":
        from repro.hw.spec import GPU_REGISTRY
        return [(name,
                 f"{spec.architecture} sm={spec.sm_count} "
                 f"bw={spec.dram_bandwidth / 1e9:.0f}GB/s "
                 f"mem={spec.dram_capacity / 2**30:.0f}GiB "
                 f"{'sptc' if spec.has_sparse_alu else '-'}")
                for name, spec in GPU_REGISTRY.items()]
    if kind == "links":
        from repro.hw.interconnect import LINK_REGISTRY
        return [(name,
                 f"alpha={link.latency_s * 1e6:.1f}us "
                 f"beta={link.bandwidth / 1e9:.0f}GB/s")
                for name, link in LINK_REGISTRY.items()]
    if kind == "models":
        from repro.moe.config import MODEL_REGISTRY
        return [(name,
                 f"{cfg.config_group} e={cfg.num_experts} "
                 f"k={cfg.top_k} h={cfg.hidden_size} "
                 f"i={cfg.intermediate_size} act={cfg.activation}")
                for name, cfg in MODEL_REGISTRY.items()]
    if kind == "workloads":
        from repro.workloads import WORKLOADS
        return [(name, factory.describe())
                for name, factory in WORKLOADS.items()]
    if kind == "routers":
        from repro.serve.disagg import ROUTERS
        return [(name, (cls.__doc__ or "").strip().splitlines()[0]
                 if cls.__doc__ else "")
                for name, cls in ROUTERS.items()]
    raise ValueError(kind)


LIST_KINDS = ("engines", "kernels", "gpus", "links", "models",
              "workloads", "routers")


def cmd_list(argv: list[str]) -> int:
    """``repro list [kind]`` — print one registry, or all of them."""
    if argv and argv[0] in ("-h", "--help"):
        print("usage: repro list [" + "|".join(LIST_KINDS) + "]")
        return 0
    if len(argv) > 1:
        print("repro list: expected at most one registry kind",
              file=sys.stderr)
        return 2
    if argv and argv[0] not in LIST_KINDS:
        print(f"repro list: unknown registry {argv[0]!r}; known: "
              f"{', '.join(LIST_KINDS)}", file=sys.stderr)
        return 2
    kinds = [argv[0]] if argv else list(LIST_KINDS)
    for index, kind in enumerate(kinds):
        rows = _registry_rows(kind)
        if index:
            print()
        print(f"{kind} ({len(rows)}):")
        width = max(len(name) for name, _ in rows)
        for name, summary in rows:
            print(f"  {name:<{width}}  {summary}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: repro bench <subcommand> [options]\n"
              "       repro lint [paths] [--select CODES] "
              "[--format text|json]\n"
              "       repro list "
              "[engines|kernels|gpus|links|models|workloads|routers]\n"
              "       (see `repro bench --help` for bench subcommands)")
        return 0 if argv else 2
    if argv[0] == "bench":
        from repro.bench.cli import main as bench_main
        return bench_main(argv[1:])
    if argv[0] == "lint":
        from repro.analysis.cli import main as lint_main
        return lint_main(argv[1:])
    if argv[0] == "list":
        return cmd_list(argv[1:])
    print(f"repro: unknown command {argv[0]!r}; try `repro bench --help`, "
          f"`repro lint --help` or `repro list`", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
