"""Cluster-scale serving: expert-parallel scaling across a device grid.

Drives the topology-aware cost stack: sweep the expert-parallel degree
over 1/2/4/8 devices under a saturating Poisson load, show the
per-device expert weight footprint shrinking ~1/ep and QPS climbing,
then lower the interconnect bandwidth (NVLink -> PCIe -> IB) to show
the communication fraction eating the scaling, and compare the
skew-aware balanced expert placement against round-robin on a skewed
routing profile.

Run:  PYTHONPATH=src python examples/cluster_scaling.py
"""

from repro.context import ExecutionContext
from repro.hw.interconnect import ParallelPlan
from repro.models.full_model import cluster_model_estimate
from repro.moe.config import get_model
from repro.moe.memory_model import weight_bytes
from repro.serve import ServingEngine, poisson_trace
from repro.utils.units import GIB

MODEL, GPU, SEED = "mixtral-8x7b", "rtx4070s", 7
EP_SWEEP = (1, 2, 4, 8)


def main() -> None:
    config = get_model(MODEL)

    # ------------------------------------------------------------------
    # Expert-parallel scaling: per-device weights and sustained QPS.
    # ------------------------------------------------------------------
    trace = poisson_trace(32, rate_qps=100.0, prompt_tokens=512,
                          output_tokens=16, seed=SEED)
    print(f"{MODEL} on {GPU} over nvlink, {len(trace)} requests "
          f"(saturating load):")
    for ep in EP_SWEEP:
        plan = ParallelPlan(ep=ep)
        ctx = ExecutionContext.create(MODEL, "samoyeds", GPU,
                                      parallel=plan, link="nvlink")
        report = ServingEngine(ctx=ctx, seed=SEED).run(trace)
        cluster = report.cluster or {}
        weights = weight_bytes(config, "samoyeds", plan)
        print(f"  ep={ep}  {report.qps_sustained:6.2f} qps  "
              f"ttft p50 {report.ttft_s.p50 * 1e3:6.1f} ms  "
              f"weights/dev {weights / GIB:5.2f} GiB  "
              f"comm {cluster.get('comm_fraction', 0.0) * 100:4.1f}%")

    # ------------------------------------------------------------------
    # The interconnect decides whether the wins survive the all-to-all.
    # ------------------------------------------------------------------
    print("\nep=8 under progressively slower links:")
    for link in ("nvlink", "pcie4", "ib"):
        ctx = ExecutionContext.create(MODEL, "samoyeds", GPU,
                                      parallel="ep=8", link=link)
        report = ServingEngine(ctx=ctx, seed=SEED).run(trace)
        print(f"  {link:7s} {report.qps_sustained:6.2f} qps  "
              f"comm {report.cluster['comm_fraction'] * 100:4.1f}%")

    # ------------------------------------------------------------------
    # Placement policy under skewed routing.
    # ------------------------------------------------------------------
    skewed = poisson_trace(32, rate_qps=100.0, prompt_tokens=512,
                           output_tokens=16, seed=SEED)
    print("\nplacement under zipf(1.0) routing skew, ep=4:")
    ctx = ExecutionContext.create(MODEL, "samoyeds", GPU, parallel="ep=4")
    for policy in ("balanced", "round_robin"):
        report = ServingEngine(ctx=ctx, seed=SEED, routing_skew=1.0,
                               placement_policy=policy).run(skewed)
        print(f"  {policy:11s} {report.qps_sustained:6.2f} qps  "
              f"experts/device {report.cluster['experts_per_device']}")

    # ------------------------------------------------------------------
    # Capacity planning: tensor parallelism makes the big model fit.
    # ------------------------------------------------------------------
    big = get_model("mixtral-8x22b")
    print(f"\n{big.name} deployment planning on {GPU}:")
    ctx = ExecutionContext.create(big, "samoyeds", GPU)
    for ep, tp in ((1, 1), (8, 1), (8, 4), (8, 8)):
        est = cluster_model_estimate(big, "samoyeds",
                                     ParallelPlan(ep=ep, tp=tp),
                                     spec=ctx.spec)
        print(f"  ep={ep} tp={tp}: {est.weights_gib_per_device:6.1f} "
              f"GiB/dev  latency {est.latency_s * 1e3:7.1f} ms  "
              f"comm {est.comm_fraction * 100:4.1f}%  "
              f"fits={est.fits}")


if __name__ == "__main__":
    main()
