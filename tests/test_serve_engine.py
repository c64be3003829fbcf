"""The discrete-event serving loop: acceptance properties.

Covers the ISSUE acceptance criteria: continuous batching sustains
strictly higher QPS than static batching on a bursty trace; the
memory-aware admission control reproduces Table-3 max-batch numbers as
an emergent concurrency limit; TTFT/TPOT percentiles are deterministic
under a fixed RNG seed.
"""

import itertools
import json

import pytest

from repro.context import ExecutionContext
from repro.errors import CapacityError, ConfigError
from repro.hw import get_gpu
from repro.moe import MODEL_REGISTRY
from repro.moe.memory_model import (
    BlockAllocator,
    KVCacheTracker,
    footprint,
)
from repro.serve import (
    ChunkedPrefillBatcher,
    ContinuousBatcher,
    StaticBatcher,
    bursty_trace,
    make_batcher,
    poisson_trace,
    replay_trace,
)
from repro.serve.costs import decode_context
from repro.serve.engine import Pool, ServingEngine, ServingLoop
from repro.serve.events import CLOCK_EPS
from repro.workloads.tenants import TenantSpec

CFG = MODEL_REGISTRY["mixtral-8x7b"]
SEED = 7


@pytest.fixture(scope="module")
def ctx():
    return ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100")


@pytest.fixture(scope="module")
def burst():
    return bursty_trace(48, rate_qps=4.0, prompt_tokens=256,
                        output_tokens=24, seed=SEED)


class TestContinuousVsStatic:
    def test_continuous_sustains_higher_qps_on_bursty(self, ctx, burst):
        cont = ServingEngine(ctx=ctx,
                             batcher=ContinuousBatcher(token_budget=4096),
                             seed=SEED).run(burst)
        stat = ServingEngine(ctx=ctx, batcher=StaticBatcher(batch_size=8),
                             seed=SEED).run(burst)
        assert cont.completed == stat.completed == len(burst)
        assert cont.qps_sustained > stat.qps_sustained

    def test_continuous_cuts_tail_ttft(self, ctx, burst):
        cont = ServingEngine(ctx=ctx, seed=SEED).run(burst)
        stat = ServingEngine(ctx=ctx, batcher=StaticBatcher(batch_size=8),
                             seed=SEED).run(burst)
        assert cont.ttft_s.p99 < stat.ttft_s.p99


class TestEmergentMemoryLimit:
    def test_tracker_matches_table3_all_engines(self, spec):
        for engine in ("transformers", "megablocks", "vllm-ds", "pit",
                       "samoyeds"):
            for seq in (1024, 4096):
                tracker = KVCacheTracker(CFG, engine, spec)
                table3 = footprint(CFG, engine, seq, spec).max_batch()
                assert tracker.max_concurrent(seq) == table3

    def test_sim_concurrency_caps_at_table3(self):
        """Max batch emerges from admission, never configured."""
        spec = get_gpu("rtx4070s")
        seq, output = 4096, 8
        limit = footprint(CFG, "vllm-ds", seq, spec).max_batch()
        assert 0 < limit < 12          # tight enough to bind in the sim
        trace = replay_trace([(0.0, seq - output, output)
                              for _ in range(limit + 4)])
        report = ServingEngine(
            ctx=ExecutionContext.create("mixtral-8x7b", "vllm-ds",
                                        "rtx4070s"),
            batcher=ContinuousBatcher(token_budget=10 ** 9),
            num_layers=1, seed=SEED).run(trace)
        assert report.max_concurrency == limit
        assert report.completed == len(trace)

    def test_samoyeds_admits_more_than_dense_baselines(self, spec):
        sam = KVCacheTracker(CFG, "samoyeds", spec).max_concurrent(1024)
        for engine in ("transformers", "megablocks", "vllm-ds"):
            assert sam > KVCacheTracker(CFG, engine,
                                        spec).max_concurrent(1024)

    def test_impossible_request_raises_capacity_error(self):
        """vLLM-DS OOMs Mixtral-8x22B on a 12 GiB card (Table 3)."""
        trace = poisson_trace(2, 1.0, prompt_tokens=64, output_tokens=4,
                              seed=SEED)
        ctx = ExecutionContext.create("mixtral-8x22b", "vllm-ds",
                                      "rtx4070s")
        with pytest.raises(CapacityError):
            ServingEngine(ctx=ctx, num_layers=1, seed=SEED).run(trace)


class TestQueueDepthSampling:
    def test_arrivals_during_step_are_counted(self, ctx):
        """Regression: queue depth was sampled before draining the
        arrivals that landed during the step, undercounting p99/max."""
        trace = replay_trace([(0.0, 2048, 4)]
                             + [(1e-6, 32, 4) for _ in range(9)])
        report = ServingEngine(ctx=ctx,
                               batcher=ContinuousBatcher(token_budget=4096),
                               num_layers=1, seed=SEED).run(trace)
        # All 9 arrive during the long first prefill step: the first
        # sample must see them queued.
        assert report.queue_depth.max >= 9


class TestMemoryReporting:
    def test_reserved_peak_reported_beside_live_peak(self, ctx):
        """Regression: only the KV-cache live bytes were reported, far
        below the admission-charged budget."""
        trace = poisson_trace(12, 3.0, prompt_tokens=256,
                              output_tokens=8, seed=SEED)
        report = ServingEngine(ctx=ctx, seed=SEED).run(trace)
        assert report.peak_reserved_bytes > report.peak_memory_bytes
        assert report.block_utilisation.max > 0

    def test_block_ledger_never_exceeds_budget(self):
        from repro.moe.memory_model import BlockAllocator
        spec = get_gpu("rtx4070s")
        trace = replay_trace([(0.0, 1024, 3072) for _ in range(8)])
        report = ServingEngine(
            ctx=ExecutionContext.create("mixtral-8x7b", "vllm-ds", spec),
            batcher=ContinuousBatcher(token_budget=10 ** 9),
            num_layers=1, seed=SEED, page_size=16).run(trace)
        budget = BlockAllocator(CFG, "vllm-ds", spec,
                                page_size=16).budget_bytes
        assert report.peak_reserved_bytes <= budget
        assert report.block_utilisation.max <= 1.0 + 1e-9


class TestPagedServing:
    def test_paged_chunked_beats_conservative_on_long_prompts(self):
        """ISSUE acceptance: bursty long-prompt trace, paged + chunked
        completes everything with strictly higher max concurrency and
        lower p99 TTFT than conservative-admission continuous batching,
        for both samoyeds and vllm-ds."""
        trace = bursty_trace(24, rate_qps=2.0, prompt_tokens=2048,
                             output_tokens=16, seed=SEED)
        for engine in ("samoyeds", "vllm-ds"):
            ctx = ExecutionContext.create("mixtral-8x7b", engine, "a100")
            base = ServingEngine(
                ctx=ctx, batcher=ContinuousBatcher(token_budget=1024),
                num_layers=4, seed=SEED).run(trace)
            paged = ServingEngine(
                ctx=ctx, batcher=ChunkedPrefillBatcher(token_budget=1024),
                num_layers=4, seed=SEED, page_size=16).run(trace)
            assert base.completed == paged.completed == len(trace)
            assert paged.max_concurrency > base.max_concurrency, engine
            assert paged.ttft_s.p99 < base.ttft_s.p99, engine

    def test_uniform_trace_paged_matches_table3(self):
        """Block-aligned uniform requests saturate at exactly the
        Table-3 max batch under paging too."""
        spec = get_gpu("rtx4070s")
        seq, output = 4096, 8
        limit = footprint(CFG, "vllm-ds", seq, spec).max_batch()
        trace = replay_trace([(0.0, seq - output, output)
                              for _ in range(limit + 4)])
        report = ServingEngine(
            ctx=ExecutionContext.create("mixtral-8x7b", "vllm-ds", spec),
            batcher=ContinuousBatcher(token_budget=10 ** 9),
            num_layers=1, seed=SEED, page_size=16).run(trace)
        assert report.max_concurrency == limit
        assert report.completed == len(trace)

    def test_preempted_requests_finish(self):
        """Over-admitting at low live context forces block exhaustion
        mid-decode; every evicted request is recomputed to completion."""
        trace = replay_trace([(0.0, 1024, 3072) for _ in range(8)])
        report = ServingEngine(
            ctx=ExecutionContext.create("mixtral-8x7b", "vllm-ds",
                                        "rtx4070s"),
            batcher=ContinuousBatcher(token_budget=10 ** 9),
            num_layers=1, seed=SEED, page_size=16).run(trace)
        assert report.preemptions > 0
        assert report.completed == len(trace)
        assert report.max_concurrency == 8      # paged over-admission

    def test_conservative_never_preempts(self, ctx, burst):
        report = ServingEngine(ctx=ctx, seed=SEED).run(burst)
        assert report.preemptions == 0

    def test_paged_never_fits_raises(self):
        trace = replay_trace([(0.0, 64, 4)])
        ctx = ExecutionContext.create("mixtral-8x22b", "vllm-ds",
                                      "rtx4070s")
        with pytest.raises(CapacityError):
            ServingEngine(ctx=ctx, num_layers=1, seed=SEED,
                          page_size=16).run(trace)

    def test_request_too_large_alone_raises(self):
        """A paged rtx4070s ledger holds at most 84,144 tokens of one
        request: an 84,136-token prompt prefills, but its decode runs
        past that with nobody left to preempt."""
        ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds",
                                      "rtx4070s")
        trace = replay_trace([(0.0, 84_136, 64)])
        with pytest.raises(CapacityError) as exc:
            ServingEngine(ctx=ctx, batcher=ContinuousBatcher(),
                          num_layers=1, seed=SEED, page_size=16).run(trace)
        assert str(exc.value) == (
            "request 0 (84200 tokens) exceeds device memory even alone "
            "on rtx4070s with samoyeds")
        ledger = BlockAllocator(CFG, "samoyeds", ctx.spec, page_size=16)
        assert exc.value.required_bytes == int(ledger.peak_bytes(84_200))

    def test_paged_deterministic(self):
        def run():
            trace = bursty_trace(16, 4.0, prompt_tokens=512,
                                 output_tokens=12, seed=SEED)
            return ServingEngine(
                ctx=ExecutionContext.create("mixtral-8x7b", "samoyeds",
                                            "a100"),
                batcher=ChunkedPrefillBatcher(token_budget=512),
                num_layers=2, seed=SEED, page_size=16).run(trace)
        assert run().to_dict() == run().to_dict()

    def test_invalid_page_size_rejected(self, ctx):
        with pytest.raises(ConfigError):
            ServingEngine(ctx=ctx, page_size=-1)


class TestDeterminism:
    def test_reports_identical_under_fixed_seed(self, ctx):
        def run():
            trace = bursty_trace(32, 4.0, prompt_tokens=128,
                                 output_tokens=12, seed=SEED)
            return ServingEngine(ctx=ctx, seed=SEED).run(trace)
        assert run().to_dict() == run().to_dict()

    def test_different_trace_seed_changes_report(self, ctx):
        def run(seed):
            trace = bursty_trace(32, 4.0, prompt_tokens=128,
                                 output_tokens=12, seed=seed)
            return ServingEngine(ctx=ctx, seed=SEED).run(trace)
        assert run(1).duration_s != run(2).duration_s


class TestEngineComparison:
    def test_all_engines_complete_identical_traffic(self, ctx):
        trace = poisson_trace(16, 3.0, prompt_tokens=128,
                              output_tokens=8, seed=SEED)
        for engine in ("transformers", "megablocks", "vllm-ds", "pit",
                       "samoyeds"):
            report = ServingEngine(ctx=ctx.with_engine(engine),
                                   seed=SEED).run(trace)
            assert report.engine == engine
            assert report.completed == len(trace)
            assert report.ttft_s.p50 > 0
            assert report.peak_memory_bytes > 0


class TestLptScheduling:
    def test_streams_accelerate_samoyeds_steps(self, ctx):
        trace = poisson_trace(8, 4.0, prompt_tokens=256,
                              output_tokens=8, seed=SEED)
        seq = ServingEngine(ctx=ctx, seed=SEED).run(trace)
        # sanity: same config
        par = ServingEngine(ctx=ctx, seed=SEED).run(trace)
        assert seq.duration_s == par.duration_s
        ctx4 = ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100",
                                       streams=4)
        overlapped = ServingEngine(ctx=ctx4, seed=SEED).run(trace)
        assert overlapped.duration_s < seq.duration_s

    def test_lpt_deterministic(self):
        ctx4 = ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100",
                                       streams=4)
        trace = poisson_trace(8, 4.0, prompt_tokens=128, output_tokens=6,
                              seed=SEED)
        a = ServingEngine(ctx=ctx4, routing_skew=1.0, seed=SEED).run(trace)
        b = ServingEngine(ctx=ctx4, routing_skew=1.0, seed=SEED).run(trace)
        assert a.to_dict() == b.to_dict()


class TestLifecycle:
    def test_ttft_tpot_ordering(self, ctx):
        trace = poisson_trace(12, 2.0, prompt_tokens=128,
                              output_tokens=8, seed=SEED)
        report = ServingEngine(ctx=ctx, seed=SEED).run(trace)
        assert report.ttft_s.p50 <= report.ttft_s.p90 <= report.ttft_s.p99
        assert report.tpot_s.p50 <= report.tpot_s.p99
        assert report.duration_s > 0 and report.steps > 0

    def test_single_layer_faster_than_full_model(self, ctx):
        trace = poisson_trace(8, 3.0, prompt_tokens=128, output_tokens=6,
                              seed=SEED)
        one = ServingEngine(ctx=ctx, num_layers=1, seed=SEED).run(trace)
        full = ServingEngine(ctx=ctx, seed=SEED).run(trace)
        assert one.ttft_s.p50 < full.ttft_s.p50

    def test_zero_layers_rejected_not_full_depth(self, ctx):
        """Only ``None`` means the model's depth; 0 layers is invalid."""
        with pytest.raises(ConfigError, match="num_layers must be positive"):
            ServingEngine(ctx=ctx, num_layers=0)

    def test_unknown_pool_role_rejected(self, ctx):
        with pytest.raises(ConfigError, match="role must be one of"):
            Pool(ctx, ContinuousBatcher(), role="x")

    def test_engine_object_reusable(self, ctx):
        server = ServingEngine(ctx=ctx, seed=SEED)
        trace = poisson_trace(6, 3.0, prompt_tokens=64, output_tokens=4,
                              seed=SEED)
        first = server.run(trace)
        second = server.run(trace)
        assert first.completed == second.completed == 6


def count_fast_steps(monkeypatch, engine):
    """The steps each fast run on ``engine``'s pool commits, as a list
    the runs append to (until ``monkeypatch`` restores the loop).  A
    run that opens on a prefilled resident set must open at the
    ledger's resident-token total, the decode batch's context."""
    committed = []
    fast_run = ServingLoop.fast_decode_run

    def counted(loop, pool):
        running = pool.running
        if running and all(ar.prefilled for ar in running):
            assert pool.ledger.resident_tokens == decode_context(running)
        steps = fast_run(loop, pool)
        if pool is engine.pool:
            committed.append(steps)
        return steps

    monkeypatch.setattr(ServingLoop, "fast_decode_run", counted)
    return committed


#: Every (batcher, page size, engine, flash) the fast path runs for.
FAST_CASES = list(itertools.product(("continuous", "chunked"),
                                    (None, 1, 16), ("samoyeds", "auto"),
                                    (True, False)))

#: (batcher, page size, engine) of the event-boundary cases.
BOUNDARY_CASES = list(itertools.product(("continuous", "chunked"),
                                        (None, 16), ("samoyeds", "auto")))
BOUNDARY_IDS = [f"{b}-{'conservative' if p is None else f'page{p}'}-{e}"
                for b, p, e in BOUNDARY_CASES]

#: A decode-heavy trace below the a100 KV knee: fast runs end at
#: finishes and at arrivals.
BOUNDARY_TRACE = poisson_trace(24, 8.0, prompt_tokens=256,
                               output_tokens=96, jitter=0.5, seed=17)


def serve_report(monkeypatch, batcher, page_size, engine, trace, *,
                 sanitize, **kwargs):
    """One-layer a100 report of ``trace`` as sorted JSON, and the steps
    each fast run committed."""
    ctx = ExecutionContext.create("mixtral-8x7b", engine, "a100")
    server = ServingEngine(ctx=ctx, batcher=make_batcher(batcher),
                           num_layers=1, seed=5, page_size=page_size,
                           sanitize=sanitize, **kwargs)
    committed = count_fast_steps(monkeypatch, server)
    report = server.run(trace)
    return json.dumps(report.to_dict(), sort_keys=True), committed


def fast_runs(monkeypatch, batcher, page_size, engine, trace):
    """Serve ``trace`` once on the fast path; return the loop and each
    committing fast run's ``(first sample index, steps)``."""
    ctx = ExecutionContext.create("mixtral-8x7b", engine, "a100")
    loop = ServingLoop()
    pool = Pool(ctx, make_batcher(batcher), num_layers=1, seed=5,
                page_size=page_size, sanitize=False)
    runs = []
    fast_run = ServingLoop.fast_decode_run

    def recorded(self, pool):
        start = len(self.collector.samples)
        steps = fast_run(self, pool)
        if steps:
            runs.append((start, steps))
        return steps

    monkeypatch.setattr(ServingLoop, "fast_decode_run", recorded)
    loop.run([pool], trace)
    monkeypatch.setattr(ServingLoop, "fast_decode_run", fast_run)
    return loop, runs


def mid_run_boundary(runs):
    """The sample index of the first step of a fast run of at least
    three steps, from the middle of the trace: its boundary is inside
    that run."""
    starts = [start for start, steps in runs if steps >= 3]
    return starts[len(starts) // 2]


class TestFastPath:
    """The uneventful-decode fast path changes no byte of a report."""

    def test_pool_steps_count_fast_steps(self, monkeypatch, ctx):
        engine = ServingEngine(ctx=ctx, num_layers=1, seed=SEED,
                               sanitize=False)
        committed = count_fast_steps(monkeypatch, engine)
        report = engine.run(poisson_trace(
            12, 5.0, prompt_tokens=128, output_tokens=200, jitter=0.5,
            seed=1))
        assert sum(committed) > 0
        assert engine.pool.steps == report.steps

    @pytest.mark.parametrize(
        "batcher,page_size,engine,flash", FAST_CASES,
        ids=[f"{b}-{'conservative' if p is None else f'page{p}'}-{e}"
             f"{'' if f else '-noflash'}" for b, p, e, f in FAST_CASES])
    def test_report_equals_sanitized(self, monkeypatch, batcher,
                                     page_size, engine, flash):
        """A trace past the rtx4070s KV knee, served with the fast path
        and with the sanitizer (which turns it off), gives the same
        report byte for byte, and the fast path committed steps, with
        and without flash attention.  Every paged case preempts; on
        Samoyeds a refused block crossing also cuts fast runs short."""
        cut = []
        grow_steps = BlockAllocator.grow_steps

        def counted_growth(ledger, request_ids, steps):
            grown, crossed = grow_steps(ledger, request_ids, steps)
            cut.append(grown < steps)
            return grown, crossed

        monkeypatch.setattr(BlockAllocator, "grow_steps", counted_growth)
        ctx = ExecutionContext.create("mixtral-8x7b", engine, "rtx4070s",
                                      flash=flash)
        trace = poisson_trace(40, 200.0, prompt_tokens=2000,
                              output_tokens=400, jitter=0.5, seed=3)

        def report(sanitize):
            server = ServingEngine(
                ctx=ctx, batcher=make_batcher(batcher), num_layers=1,
                seed=5, page_size=page_size, sanitize=sanitize)
            committed = count_fast_steps(monkeypatch, server)
            result = server.run(trace)
            return json.dumps(result.to_dict(), sort_keys=True), committed

        fast, committed = report(False)
        checked, sanitized_committed = report(True)
        assert fast == checked
        assert sum(committed) > 0 and not any(sanitized_committed)
        if page_size is not None:
            assert json.loads(fast)["preemptions"] > 0
            if engine == "samoyeds":
                assert any(cut)

    @pytest.mark.parametrize("where", ["mid-run", "eps-past-boundary",
                                       "finish-step"])
    @pytest.mark.parametrize("batcher,page_size,engine", BOUNDARY_CASES,
                             ids=BOUNDARY_IDS)
    def test_horizon_matches_sanitized(self, monkeypatch, batcher,
                                       page_size, engine, where):
        """A horizon inside a fast run, within ``CLOCK_EPS`` past one of
        its step boundaries (no tolerance: the horizon is not due there)
        or on a step where a request finishes: the fast and sanitized
        reports agree byte for byte, and both stop after the step the
        horizon falls in, with every request finished by then."""
        loop, runs = fast_runs(monkeypatch, batcher, page_size, engine,
                               BOUNDARY_TRACE)
        clocks = [sample.clock_s for sample in loop.collector.samples]
        if where == "finish-step":
            # A finish step right after a fast step.
            fast = {start + step for start, steps in runs
                    for step in range(steps)}
            finished = {record.finished_s
                        for record in loop.records.values()}
            ends = [index for index, clock in enumerate(clocks)
                    if clock in finished and index - 1 in fast]
            last = ends[len(ends) // 2]
            horizon_s = clocks[last]
        else:
            start = mid_run_boundary(runs)
            last = start + 1
            if where == "mid-run":
                horizon_s = (clocks[start] + clocks[last]) / 2
            else:
                horizon_s = clocks[start] + CLOCK_EPS / 2
                assert clocks[start] < horizon_s < clocks[last]
        fast, committed = serve_report(
            monkeypatch, batcher, page_size, engine, BOUNDARY_TRACE,
            sanitize=False, horizon_s=horizon_s)
        checked, _ = serve_report(
            monkeypatch, batcher, page_size, engine, BOUNDARY_TRACE,
            sanitize=True, horizon_s=horizon_s)
        assert fast == checked
        assert sum(committed) > 0
        report = json.loads(fast)
        assert report["steps"] == last + 1
        assert report["completed"] == sum(
            1 for record in loop.records.values()
            if record.finished_s is not None
            and record.finished_s <= clocks[last])
        assert report["completed"] < len(BOUNDARY_TRACE)

    @pytest.mark.parametrize("batcher,page_size,engine", BOUNDARY_CASES,
                             ids=BOUNDARY_IDS)
    def test_arrival_eps_past_boundary_matches_sanitized(
            self, monkeypatch, batcher, page_size, engine):
        """An arrival within ``CLOCK_EPS`` past a step boundary inside a
        fast run is due at that boundary: the run ends there and its
        last sample counts the arrival, as the general path's does."""
        loop, runs = fast_runs(monkeypatch, batcher, page_size, engine,
                               BOUNDARY_TRACE)
        start = mid_run_boundary(runs)
        arrival_s = loop.collector.samples[start].clock_s + CLOCK_EPS / 2
        trace = replay_trace(
            [(req.arrival_s, req.prompt_tokens, req.output_tokens)
             for req in BOUNDARY_TRACE] + [(arrival_s, 256, 96)])
        fast, committed = serve_report(monkeypatch, batcher, page_size,
                                       engine, trace, sanitize=False)
        checked, _ = serve_report(monkeypatch, batcher, page_size,
                                  engine, trace, sanitize=True)
        assert fast == checked
        assert sum(committed) > 0

    @pytest.mark.parametrize("batcher,page_size,engine", BOUNDARY_CASES,
                             ids=BOUNDARY_IDS)
    def test_rate_limited_tenants_match_sanitized(self, monkeypatch,
                                                  batcher, page_size,
                                                  engine):
        """Rate-limited tenants: one arrival is larger than its bucket
        and is rejected, and a throttled queue head with nothing else
        to run wakes the calendar with a ``RateRefill``.  Fast and
        sanitized reports agree byte for byte."""
        records = [{"arrival_s": req.arrival_s,
                    "prompt_tokens": req.prompt_tokens,
                    "output_tokens": req.output_tokens, "tenant": "free"}
                   for req in poisson_trace(12, 20.0, prompt_tokens=256,
                                            output_tokens=48, seed=13)]
        records += [
            {"arrival_s": 0.05, "prompt_tokens": 200,
             "output_tokens": 100, "tenant": "limited"},
            {"arrival_s": 0.05, "prompt_tokens": 200,
             "output_tokens": 100, "tenant": "limited"},
            {"arrival_s": 0.1, "prompt_tokens": 400,
             "output_tokens": 100, "tenant": "limited"},
        ]
        trace = replay_trace(records)
        tenants = (TenantSpec("free"),
                   TenantSpec("limited", token_rate_limit=100.0,
                              burst_tokens=400))
        refills = []
        on_rate_refill = ServingLoop.on_rate_refill

        def counted(loop, event):
            refills.append(event.when)
            on_rate_refill(loop, event)

        monkeypatch.setattr(ServingLoop, "on_rate_refill", counted)
        fast, committed = serve_report(monkeypatch, batcher, page_size,
                                       engine, trace, sanitize=False,
                                       tenants=tenants)
        fast_refills = refills.copy()
        refills.clear()
        checked, _ = serve_report(monkeypatch, batcher, page_size,
                                  engine, trace, sanitize=True,
                                  tenants=tenants)
        assert fast == checked
        assert sum(committed) > 0
        assert fast_refills and fast_refills == refills
        limited = json.loads(fast)["tenants"]["limited"]
        assert limited["rejected"] == 1 and limited["completed"] == 2

    @pytest.mark.parametrize("batcher", ["continuous", "chunked"])
    def test_general_steps_only_prefill_below_the_knee(self, monkeypatch,
                                                       batcher):
        """Below the KV knee on the conservative ledger, a pure decode
        step never takes the general path: every planned step admits a
        prompt or a chunk, and every fast call on a prefilled resident
        set commits a step."""
        plans = []
        policy = type(make_batcher(batcher))
        plan_step = policy.plan_step

        def planned(self, *args):
            plan = plan_step(self, *args)
            if not plan.empty:
                plans.append(bool(plan.prefill or plan.chunks))
            return plan

        monkeypatch.setattr(policy, "plan_step", planned)
        idle = []
        fast_run = ServingLoop.fast_decode_run

        def watched(loop, pool):
            running = pool.running
            prefilled = bool(running) and all(ar.prefilled
                                              for ar in running)
            steps = fast_run(loop, pool)
            idle.append(prefilled and not steps)
            return steps

        monkeypatch.setattr(ServingLoop, "fast_decode_run", watched)
        _, committed = serve_report(monkeypatch, batcher, None,
                                    "samoyeds", BOUNDARY_TRACE,
                                    sanitize=False)
        assert plans and all(plans)
        assert sum(committed) > 0 and not any(idle)
