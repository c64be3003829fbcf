"""Expert-segment scheduling policies."""

import pytest

from repro.context import ExecutionContext
from repro.errors import ConfigError
from repro.moe import MODEL_REGISTRY
from repro.moe.scheduler import (
    compare_policies,
    expert_segment_seconds,
    schedule_parallel,
    schedule_sequential,
    segment_seconds_from_loads,
)
from repro.moe.trace import skewed_plan

CFG = MODEL_REGISTRY["mixtral-8x7b"]


@pytest.fixture(scope="module")
def plan():
    return skewed_plan(512, CFG.num_experts, CFG.top_k, skew=1.0,
                       seed=31)


def _ctx(spec, **kwargs):
    """Samoyeds on ``spec`` with 4 streams and 64-row segment tiles."""
    return ExecutionContext.create(CFG, "samoyeds", spec, streams=4,
                                   tile_n=64, **kwargs)


class TestSegments:
    def test_segment_count_matches_experts(self, spec, plan):
        segments = expert_segment_seconds(_ctx(spec), plan)
        assert len(segments) == CFG.num_experts
        assert all(s >= 0 for s in segments)

    def test_loaded_experts_cost_time(self, spec, plan):
        segments = expert_segment_seconds(_ctx(spec), plan)
        loads = plan.load()
        for load, seg in zip(loads, segments):
            assert (seg > 0) == (load > 0)


class TestPolicies:
    def test_sequential_makespan_is_sum(self):
        out = schedule_sequential([1.0, 2.0, 3.0])
        assert out.makespan_s == 6.0
        assert out.total_work_s == 6.0

    def test_parallel_beats_sequential(self):
        segments = [1.0] * 8
        seq = schedule_sequential(segments)
        par = schedule_parallel(segments, streams=4)
        assert par.makespan_s < seq.makespan_s
        assert par.makespan_s == pytest.approx(2.0)

    def test_parallel_bounded_by_longest_segment(self):
        par = schedule_parallel([10.0, 1.0, 1.0, 1.0], streams=4)
        assert par.makespan_s == pytest.approx(10.0)

    def test_utilisation_bounds(self):
        par = schedule_parallel([1.0, 1.0, 1.0], streams=2)
        assert 0.0 < par.utilisation <= 1.0

    def test_zero_streams_rejected(self):
        with pytest.raises(ConfigError):
            schedule_parallel([1.0], streams=0)


class TestComparison:
    def test_all_policies_present(self, spec, plan):
        out = compare_policies(_ctx(spec), plan)
        assert set(out) == {"sequential", "parallel", "fused"}

    def test_parallel_never_slower_than_sequential(self, spec, plan):
        out = compare_policies(_ctx(spec), plan)
        assert (out["parallel"].makespan_s
                <= out["sequential"].makespan_s * 1.0001)

    def test_skew_hurts_parallel_utilisation(self, spec):
        flat = skewed_plan(512, CFG.num_experts, CFG.top_k, skew=0.0,
                           seed=32)
        hot = skewed_plan(512, CFG.num_experts, CFG.top_k, skew=1.5,
                          seed=32)
        flat_out = compare_policies(_ctx(spec), flat)
        hot_out = compare_policies(_ctx(spec), hot)
        assert (hot_out["parallel"].utilisation
                <= flat_out["parallel"].utilisation + 0.05)


class TestEdgeCases:
    def test_empty_segment_list(self):
        seq = schedule_sequential([])
        par = schedule_parallel([], streams=4)
        assert seq.makespan_s == 0.0 and seq.total_work_s == 0.0
        assert par.makespan_s == 0.0
        assert par.utilisation == 0.0

    def test_one_stream_parallel_equals_sequential(self):
        segments = [0.4, 0.1, 0.9, 0.2]
        seq = schedule_sequential(segments)
        par = schedule_parallel(segments, streams=1)
        assert par.makespan_s == pytest.approx(seq.makespan_s)
        assert par.total_work_s == pytest.approx(seq.total_work_s)

    def test_all_zero_loads(self, spec):
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        segments = segment_seconds_from_loads(
            CFG, [0] * CFG.num_experts, spec, SamoyedsKernel())
        assert segments == [0.0] * CFG.num_experts
        assert schedule_parallel(segments, streams=4).makespan_s == 0.0

    def test_gate_up_share_one_cost(self, spec):
        """Gate and up projections have one GEMM shape: the triple is
        2 * cost(inter, h, n) + cost(h, inter, n)."""
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        kernel = SamoyedsKernel()
        [seg] = segment_seconds_from_loads(CFG, [64], spec, kernel,
                                           tile_n=64)
        h, inter = CFG.hidden_size, CFG.intermediate_size
        expected = (2.0 * kernel.cost(inter, h, 64, spec).time_s
                    + kernel.cost(h, inter, 64, spec).time_s)
        assert seg == pytest.approx(expected)

    def test_invalid_tile_rejected(self, spec):
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        with pytest.raises(ConfigError):
            segment_seconds_from_loads(CFG, [64], spec, SamoyedsKernel(),
                                       tile_n=0)

    def test_fused_prices_gate_up_once(self, spec, plan):
        """Regression: schedule_fused evaluated the gate/up GEMM twice
        instead of pricing it once and counting it twice."""
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        from repro.moe.scheduler import schedule_fused

        class CountingKernel:
            def __init__(self):
                self.inner = SamoyedsKernel()
                self.calls = 0

            def cost(self, m, k, n, spec):
                self.calls += 1
                return self.inner.cost(m, k, n, spec)

        kernel = CountingKernel()
        out = schedule_fused(CFG, plan, spec, kernel)
        assert kernel.calls == 2       # one gate/up shape + one down shape
        ref = schedule_fused(CFG, plan, spec, SamoyedsKernel())
        assert out.makespan_s == pytest.approx(ref.makespan_s)


class TestContextIntegration:
    def test_context_first_argument(self, spec, plan):
        ctx = ExecutionContext.create(CFG, "samoyeds", spec, streams=4)
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel
        direct = segment_seconds_from_loads(CFG, plan.load(), spec,
                                            SamoyedsKernel(),
                                            ctx.effective_tile_n)
        via_ctx = expert_segment_seconds(ctx, plan)
        assert via_ctx == pytest.approx(direct)
        out = compare_policies(ctx, plan)
        assert out["parallel"].streams == 4


class TestExpertPlacement:
    def test_round_robin_strides_devices(self):
        from repro.moe.scheduler import place_experts
        placement = place_experts(8, 4, "round_robin")
        assert placement.device_of == (0, 1, 2, 3, 0, 1, 2, 3)
        assert placement.counts() == (2, 2, 2, 2)
        assert placement.experts_on(1) == (1, 5)

    def test_balanced_levels_skewed_profile(self):
        from repro.moe.scheduler import place_experts
        profile = [100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        placement = place_experts(8, 2, "balanced", profile)
        # The hot expert must sit alone-ish: its device gets the
        # remaining load balance, not more hot experts.
        hot_device = placement.device_of[0]
        hot_load = sum(profile[e]
                       for e in placement.experts_on(hot_device))
        cold_load = sum(profile[e] for e in range(8)
                        if placement.device_of[e] != hot_device)
        assert hot_load >= cold_load
        assert max(placement.counts()) <= 7

    def test_balanced_uniform_profile_levels_counts(self):
        from repro.moe.scheduler import place_experts
        placement = place_experts(60, 8, "balanced")
        counts = placement.counts()
        assert max(counts) - min(counts) <= 1
        assert sum(counts) == 60

    def test_invalid_arguments_rejected(self):
        from repro.moe.scheduler import place_experts
        with pytest.raises(ConfigError):
            place_experts(8, 0)
        with pytest.raises(ConfigError):
            place_experts(4, 8)               # more devices than experts
        with pytest.raises(ConfigError):
            place_experts(8, 2, "random")
        with pytest.raises(ConfigError):
            place_experts(8, 2, "balanced", [1.0] * 7)
        with pytest.raises(ConfigError):
            place_experts(8, 2, "balanced", [-1.0] * 8)


class TestExpertParallelSchedule:
    def test_device_makespans_partition_segments(self):
        from repro.moe.scheduler import device_makespans, place_experts
        segments = [4.0, 3.0, 2.0, 1.0]
        placement = place_experts(4, 2, "round_robin")
        spans = device_makespans(segments, placement)
        assert spans == [4.0 + 2.0, 3.0 + 1.0]

    def test_segment_count_checked(self):
        from repro.moe.scheduler import device_makespans, place_experts
        with pytest.raises(ConfigError):
            device_makespans([1.0], place_experts(4, 2), streams=1)

    def test_ep_shrinks_compute_and_adds_comm(self, spec, plan):
        from repro.moe.scheduler import schedule_expert_parallel
        from repro.hw.interconnect import ParallelPlan

        single = ExecutionContext.create(CFG, "samoyeds", spec)
        sharded = single.with_parallel(ParallelPlan(ep=4))
        res1 = schedule_expert_parallel(single, plan)
        res4 = schedule_expert_parallel(sharded, plan)
        assert res1.alltoall_s == 0.0
        assert res4.alltoall_s > 0.0
        assert res4.compute_s < res1.compute_s
        assert len(res4.per_device_s) == 4
        assert 0.0 < res4.comm_fraction < 1.0

    def test_balanced_beats_round_robin_under_skew(self, spec, plan):
        from repro.hw.interconnect import ParallelPlan
        from repro.moe.scheduler import (
            place_experts,
            schedule_expert_parallel,
        )
        ctx = ExecutionContext.create(
            CFG, "samoyeds", spec).with_parallel(ParallelPlan(ep=4))
        balanced = schedule_expert_parallel(ctx, plan, policy="balanced")
        round_robin = schedule_expert_parallel(
            ctx, plan,
            placement=place_experts(CFG.num_experts, 4, "round_robin"))
        assert balanced.compute_s <= round_robin.compute_s

    def test_mismatched_placement_rejected(self, spec, plan):
        from repro.moe.scheduler import (
            place_experts,
            schedule_expert_parallel,
        )
        ctx = ExecutionContext.create(CFG, "samoyeds", spec,
                                      parallel="ep=4")
        with pytest.raises(ConfigError):
            schedule_expert_parallel(
                ctx, plan, placement=place_experts(CFG.num_experts, 2))

    def test_tp_shards_segments(self, spec, plan):
        tp1 = segment_seconds_from_loads(
            CFG, plan.load(), spec, _kernel(), tp=1)
        tp4 = segment_seconds_from_loads(
            CFG, plan.load(), spec, _kernel(), tp=4)
        assert sum(tp4) < sum(tp1)
        with pytest.raises(ConfigError):
            segment_seconds_from_loads(CFG, [64], spec, _kernel(), tp=0)


def _kernel():
    from repro.kernels.ssmm_samoyeds import SamoyedsKernel
    return SamoyedsKernel()
