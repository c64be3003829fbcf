"""Cluster-scale serving: sharded footprints, per-device ledgers and
the parallel serving paths of ``ServingEngine``."""

import pytest

from repro.context import ExecutionContext
from repro.errors import CapacityError, ConfigError
from repro.hw import get_gpu
from repro.hw.interconnect import LinkSpec, ParallelPlan, make_cluster
from repro.moe.config import MODEL_REGISTRY
from repro.moe.memory_model import (
    DeviceLedgers,
    footprint,
    per_sequence_bytes,
    weight_bytes,
)
from repro.serve import ServingEngine, poisson_trace

CFG = MODEL_REGISTRY["mixtral-8x7b"]


def _trace(n=16, qps=50.0, prompt=256, out=8, seed=3):
    return poisson_trace(n, qps, prompt_tokens=prompt, output_tokens=out,
                         seed=seed)


def _ctx(parallel=None, link=None):
    """Mixtral-8x7B on samoyeds/rtx4070s over ``parallel`` devices."""
    return ExecutionContext.create("mixtral-8x7b", "samoyeds", "rtx4070s",
                                   parallel=parallel, link=link)


class TestShardedFootprints:
    def test_expert_weights_shrink_inversely_with_ep(self):
        attn = CFG.attention_param_count * 2
        full_experts = weight_bytes(CFG, "samoyeds") - attn
        for ep in (2, 4, 8):
            shard = weight_bytes(CFG, "samoyeds",
                                 ParallelPlan(ep=ep)) - attn
            assert shard == pytest.approx(full_experts / ep)

    def test_tp_shards_attention_and_experts(self):
        half = weight_bytes(CFG, "samoyeds", ParallelPlan(tp=2))
        assert half == pytest.approx(
            weight_bytes(CFG, "samoyeds") / 2.0)

    def test_trivial_plan_is_bit_identical(self):
        assert (weight_bytes(CFG, "samoyeds", ParallelPlan())
                == weight_bytes(CFG, "samoyeds"))
        assert (per_sequence_bytes(CFG, "samoyeds", 1024, ParallelPlan())
                == per_sequence_bytes(CFG, "samoyeds", 1024))

    def test_device_experts_prices_concrete_placement(self):
        skewed = weight_bytes(CFG, "samoyeds", ParallelPlan(ep=4),
                              device_experts=4)
        uniform = weight_bytes(CFG, "samoyeds", ParallelPlan(ep=4))
        assert skewed > uniform       # 4 of 8 experts > the 1/4 share

    def test_bad_device_experts_rejected(self):
        with pytest.raises(ConfigError):
            weight_bytes(CFG, "samoyeds", ParallelPlan(ep=2),
                         device_experts=CFG.num_experts + 1)

    def test_per_device_max_batch_grows(self, spec):
        single = footprint(CFG, "samoyeds", 1024, spec).max_batch()
        sharded = footprint(CFG, "samoyeds", 1024, spec,
                            parallel=ParallelPlan(ep=4)).max_batch()
        assert sharded > single

    def test_kv_shards_over_tp_only(self):
        ep_only = per_sequence_bytes(CFG, "samoyeds", 1024,
                                     ParallelPlan(ep=8))
        tp_only = per_sequence_bytes(CFG, "samoyeds", 1024,
                                     ParallelPlan(tp=8))
        assert tp_only < ep_only      # KV dominates at long context


class TestDeviceLedgers:
    def _ledgers(self, parallel=ParallelPlan(ep=2), counts=None,
                 page_size=None, gpus=None):
        spec = get_gpu("rtx4070s")
        grid = parallel.ep * parallel.tp
        return DeviceLedgers.create(CFG, "samoyeds",
                                    gpus or [spec] * grid, parallel,
                                    expert_counts=counts,
                                    page_size=page_size)

    def test_grid_size(self):
        assert self._ledgers(ParallelPlan(ep=2, tp=2)).num_devices == 4

    def test_asymmetric_static_bytes(self):
        ledgers = self._ledgers(counts=[6, 2])
        statics = [led.static_bytes for led in ledgers.ledgers]
        assert statics[0] > statics[1]
        assert ledgers.static_bytes == statics[0]     # bottleneck

    def test_admission_charges_every_device(self):
        ledgers = self._ledgers()
        ledgers.admit(0, 256, 512)
        assert ledgers.active_requests == 1
        for led in ledgers.ledgers:
            assert led.active_requests == 1
        ledgers.release(0)
        assert all(led.active_requests == 0 for led in ledgers.ledgers)

    def test_bottleneck_gates_admission(self):
        # One device is tiny: it must veto admission for the grid.
        spec = get_gpu("rtx4070s")
        tiny = spec.with_overrides(name="tiny",
                                   dram_capacity=spec.dram_capacity // 10)
        ledgers = self._ledgers(gpus=[spec, tiny])
        roomy = self._ledgers()
        assert roomy.max_concurrent(1024) > ledgers.max_concurrent(1024)
        assert ledgers.free_bytes == min(led.free_bytes
                                         for led in ledgers.ledgers)

    def test_paged_grow_is_all_or_nothing(self):
        ledgers = self._ledgers(page_size=16)
        ledgers.admit(0, 16, 64)
        before = [led.reserved_bytes for led in ledgers.ledgers]
        ledgers.grow(0, 16)
        after = [led.reserved_bytes for led in ledgers.ledgers]
        assert all(b > a for b, a in zip(after, before))

    def test_grow_unknown_request_rejected(self):
        with pytest.raises(ConfigError):
            self._ledgers().grow(99)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            DeviceLedgers([])

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ConfigError):
            self._ledgers(counts=[4, 2, 2])


class TestParallelServing:
    def test_trivial_plan_matches_single_gpu_report(self):
        trace = _trace()
        base = ServingEngine(ctx=_ctx(), seed=3).run(trace)
        via_plan = ServingEngine(ctx=_ctx("ep=1,tp=1"), seed=3).run(trace)
        assert base.to_dict() == via_plan.to_dict()
        assert base.cluster is None

    def test_qps_scales_monotonically_with_ep(self):
        trace = _trace(24, qps=200.0, prompt=512)
        qps = [ServingEngine(ctx=_ctx(f"ep={ep}"),
                             seed=3).run(trace).qps_sustained
               for ep in (1, 2, 4, 8)]
        assert qps == sorted(qps)
        assert qps[-1] > qps[0] * 1.5

    def test_slow_link_degrades_qps(self):
        trace = _trace(24, qps=200.0, prompt=512)
        choked = LinkSpec(name="choked", latency_s=1e-4, bandwidth=1e9)
        fast = ServingEngine(ctx=_ctx("ep=8", "nvlink"), seed=3).run(trace)
        slow = ServingEngine(ctx=_ctx("ep=8", choked), seed=3).run(trace)
        assert slow.qps_sustained < fast.qps_sustained
        assert (slow.cluster["comm_fraction"]
                > fast.cluster["comm_fraction"])

    def test_cluster_section_reports_topology(self):
        report = ServingEngine(ctx=_ctx("ep=4"), seed=3,
                               num_layers=4).run(_trace())
        cluster = report.cluster
        assert cluster["parallel"]["ep"] == 4
        assert cluster["link"] == "nvlink"
        assert sum(cluster["experts_per_device"]) == CFG.num_experts
        assert len(cluster["per_device_static_bytes"]) == 4
        assert 0.0 < cluster["comm_fraction"] < 1.0
        per_step = cluster["comm_fraction_per_step"]
        assert 0.0 < per_step["p50"] <= per_step["max"] < 1.0
        assert "cluster" in report.to_dict()

    def test_tp_serving_runs(self):
        report = ServingEngine(ctx=_ctx("tp=2"), seed=3,
                               num_layers=4).run(_trace())
        assert report.completed == 16
        assert report.cluster["comm_fraction"] > 0.0

    def test_round_robin_placement_supported(self):
        report = ServingEngine(ctx=_ctx("ep=4"), seed=3, num_layers=4,
                               placement_policy="round_robin").run(_trace())
        assert report.cluster["placement_policy"] == "round_robin"

    def test_dp_serving_rejected(self):
        ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds",
                                      parallel=ParallelPlan(dp=2))
        with pytest.raises(ConfigError, match="data-parallel"):
            ServingEngine(ctx=ctx)

    def test_paged_parallel_serving_runs(self):
        report = ServingEngine(ctx=_ctx("ep=2,tp=2"), seed=3, num_layers=4,
                               page_size=16).run(_trace())
        assert report.completed == 16

    def test_oversized_request_still_raises(self, spec):
        # A request no device of the grid can ever hold must still
        # surface as CapacityError, exactly as on a single GPU.
        tiny = spec.with_overrides(name="tiny-shard",
                                   dram_capacity=2 * 1024**3)
        ctx = ExecutionContext.create(
            "mixtral-8x22b", "samoyeds", tiny,
            parallel=ParallelPlan(ep=2),
            cluster=make_cluster(tiny, ParallelPlan(ep=2)))
        huge = poisson_trace(1, 1.0, prompt_tokens=4096,
                             output_tokens=4096, jitter=0.0, seed=1)
        with pytest.raises(CapacityError):
            ServingEngine(ctx=ctx, seed=1).run(huge)


class TestHorizon:
    def test_zero_completions_yield_empty_report(self):
        # Regression: this used to raise from percentile()/"no request
        # completed" instead of returning a structured zero.
        report = ServingEngine(ctx=_ctx(), seed=3,
                               horizon_s=1e-9).run(_trace())
        assert report.completed == 0
        assert report.qps_sustained == 0.0
        assert report.ttft_s.p99 == 0.0
        assert report.summary_row()

    def test_partial_horizon_completes_some(self):
        full = ServingEngine(ctx=_ctx(), seed=3).run(_trace())
        cut = ServingEngine(ctx=_ctx(), seed=3,
                            horizon_s=full.duration_s * 0.6).run(_trace())
        assert 0 < cut.completed < full.completed
        assert cut.duration_s <= full.duration_s

    def test_bad_horizon_rejected(self):
        ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds")
        with pytest.raises(ConfigError):
            ServingEngine(ctx=ctx, horizon_s=0.0)


class TestSimulatePrebuiltContext:
    """Serving simulation on a prebuilt context: the context alone fixes
    engine, device and parallel plan."""

    def test_context_carries_its_own_plan(self):
        trace = _trace(8)
        ctx = ExecutionContext.create(
            "mixtral-8x7b", "samoyeds", parallel=ParallelPlan(ep=2))
        report = ServingEngine(ctx=ctx, seed=3, num_layers=4).run(trace)
        assert report.cluster["parallel"]["ep"] == 2

    def test_malformed_parallel_spec_rejected(self):
        with pytest.raises(ConfigError):
            _ctx("ep=0")
        with pytest.raises(ConfigError):
            _ctx("banana=2")


class TestContextParallelValidation:
    def test_create_parses_parallel_strings(self):
        ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds",
                                      parallel="ep=2")
        assert ctx.parallel == ParallelPlan(ep=2)

    def test_raw_constructor_rejects_strings(self):
        ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds")
        with pytest.raises(ConfigError):
            ExecutionContext(config=ctx.config, engine=ctx.engine,
                             spec=ctx.spec, parallel="ep=2")

    def test_create_link_derives_cluster(self):
        ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds",
                                      parallel="ep=2", link="pcie4")
        assert ctx.cluster is not None
        assert ctx.cluster.link.name == "pcie4"
        trivial = ExecutionContext.create("mixtral-8x7b", "samoyeds",
                                          link="pcie4")
        assert trivial.cluster is None    # link ignored on one device

    def test_undersized_cluster_rejected(self, spec):
        cluster = make_cluster(spec, ParallelPlan(ep=2))
        with pytest.raises(ConfigError):
            ExecutionContext.create("mixtral-8x7b", "samoyeds",
                                    parallel=ParallelPlan(ep=4),
                                    cluster=cluster)

    def test_with_parallel_parses_strings(self):
        ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds")
        assert ctx.with_parallel("ep=4,tp=2").parallel == ParallelPlan(
            ep=4, tp=2)
        assert ctx.cluster_spec.num_devices == 1
