"""Routing-skew study: what uniform-routing benchmarks hide.

The paper (like most MoE system papers) benchmarks near-uniform routing.
This study sweeps Zipf skew on a Qwen2-MoE-shaped layer and reports what
changes: per-expert padding waste, the critical-path expert, and how
much multi-stream scheduling of the per-expert SSMM segments recovers.

Run:  python examples/routing_skew_study.py
"""

from repro.context import ExecutionContext
from repro.hw import get_gpu
from repro.moe import MODEL_REGISTRY
from repro.moe.scheduler import compare_policies
from repro.moe.trace import (
    apply_capacity,
    critical_path_tokens,
    padding_report,
    skewed_plan,
)
from repro.utils import format_seconds

CFG = MODEL_REGISTRY["qwen2-moe"]     # 60 experts: padding-sensitive
TOKENS = 4096
TILE = 64


def main() -> None:
    spec = get_gpu("rtx4070s")
    ctx = ExecutionContext.create(CFG, "samoyeds", spec, streams=4,
                                  tile_n=TILE)
    print(f"model: {CFG.name} ({CFG.num_experts} experts, "
          f"top_k={CFG.top_k}), {TOKENS} tokens, n-tile {TILE}\n")

    header = (f"{'skew':>5} {'imbalance':>10} {'padding waste':>14} "
              f"{'critical path':>14} {'sequential':>12} "
              f"{'4 streams':>12} {'fused':>12}")
    print(header)
    print("-" * len(header))
    for skew in (0.0, 0.5, 1.0, 1.5, 2.0):
        plan = skewed_plan(TOKENS, CFG.num_experts, CFG.top_k,
                           skew=skew, seed=41)
        pad = padding_report(plan, TILE)
        critical = critical_path_tokens(plan, TILE)
        policies = compare_policies(ctx, plan)
        print(f"{skew:>5.1f} {plan.load_imbalance():>10.2f} "
              f"{pad.waste_fraction:>14.1%} {critical:>14d} "
              f"{format_seconds(policies['sequential'].makespan_s):>12s} "
              f"{format_seconds(policies['parallel'].makespan_s):>12s} "
              f"{format_seconds(policies['fused'].makespan_s):>12s}")

    # Capacity factors: the accuracy/balance trade-off routers use.
    print("\ncapacity-factor study at skew 1.5:")
    plan = skewed_plan(TOKENS, CFG.num_experts, CFG.top_k, skew=1.5,
                       seed=42)
    for factor in (2.0, 1.25, 1.0):
        clamped, report = apply_capacity(plan, capacity_factor=factor)
        pad = padding_report(clamped, TILE)
        print(f"  factor {factor:<4} -> capacity {report.capacity:>4} "
              f"tokens/expert, dropped {report.drop_fraction:>6.1%}, "
              f"padding waste {pad.waste_fraction:>6.1%}")


if __name__ == "__main__":
    main()
