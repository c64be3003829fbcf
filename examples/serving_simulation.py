"""Request-level serving simulation: continuous batching end to end.

Drives the repro.serve API: build an ExecutionContext, generate arrival
traces, compare continuous vs static batching on a bursty workload,
race the engines under identical Poisson traffic, show the emergent
memory-derived concurrency limit (the request-level analogue of
Table 3), and demonstrate the paged KV cache + chunked prefill
configuration on a long-prompt trace.

Run:  PYTHONPATH=src python examples/serving_simulation.py
"""

from repro.context import ExecutionContext
from repro.moe.memory_model import KVCacheTracker, max_batch_size
from repro.serve import (
    ChunkedPrefillBatcher,
    ContinuousBatcher,
    ServingEngine,
    StaticBatcher,
    bursty_trace,
    poisson_trace,
)

MODEL, GPU, SEED = "mixtral-8x7b", "a100", 7


def main() -> None:
    # ------------------------------------------------------------------
    # Continuous vs static batching on a bursty trace.
    # ------------------------------------------------------------------
    trace = bursty_trace(48, rate_qps=4.0, prompt_tokens=256,
                         output_tokens=24, seed=SEED)
    ctx = ExecutionContext.create(MODEL, "samoyeds", GPU)
    print(f"{MODEL} on {GPU}, bursty trace, {len(trace)} requests:")
    for batcher in (ContinuousBatcher(token_budget=4096),
                    StaticBatcher(batch_size=8)):
        report = ServingEngine(ctx=ctx, batcher=batcher,
                               seed=SEED).run(trace)
        print(f"  {batcher.name:10s} {report.qps_sustained:5.2f} qps  "
              f"ttft p50 {report.ttft_s.p50 * 1e3:7.1f} ms  "
              f"p99 {report.ttft_s.p99 * 1e3:7.1f} ms  "
              f"tpot p50 {report.tpot_s.p50 * 1e3:6.2f} ms")

    # ------------------------------------------------------------------
    # All engines under identical Poisson traffic.
    # ------------------------------------------------------------------
    print(f"\nengine race, poisson trace at 3 QPS:")
    for engine in ("transformers", "megablocks", "vllm-ds", "pit",
                   "samoyeds"):
        trace = poisson_trace(48, rate_qps=3.0, prompt_tokens=256,
                              output_tokens=24, seed=SEED)
        report = ServingEngine(ctx=ctx.with_engine(engine),
                               seed=SEED).run(trace)
        print(f"  {engine:12s} {report.qps_sustained:5.2f} qps  "
              f"{report.output_tokens_per_s:6.1f} tok/s  "
              f"ttft p99 {report.ttft_s.p99 * 1e3:8.1f} ms  "
              f"max concurrency {report.max_concurrency}")

    # ------------------------------------------------------------------
    # Emergent concurrency limit == Table-3 max batch.
    # ------------------------------------------------------------------
    seq = 1024
    print(f"\nmemory-derived concurrency at seq {seq} (Table 3):")
    for engine in ("transformers", "vllm-ds", "samoyeds"):
        tracker = KVCacheTracker(ctx.config, engine, ctx.spec)
        emergent = tracker.max_concurrent(seq)
        table3 = max_batch_size(ctx.config, engine, seq, ctx.spec)
        print(f"  {engine:12s} tracker {emergent:4d}  "
              f"table-3 {table3:4d}  agree={emergent == table3}")

    # ------------------------------------------------------------------
    # Paged KV cache + chunked prefill on a bursty long-prompt trace.
    # ------------------------------------------------------------------
    long_trace = bursty_trace(24, rate_qps=2.0, prompt_tokens=2048,
                              output_tokens=16, seed=SEED,
                              eos_sampling=True)
    print("\npaged KV + chunked prefill, 2k-token prompts "
          "(EOS-sampled outputs):")
    for engine in ("samoyeds", "vllm-ds"):
        engine_ctx = ctx.with_engine(engine)
        base = ServingEngine(
            ctx=engine_ctx, batcher=ContinuousBatcher(token_budget=1024),
            num_layers=4, seed=SEED).run(long_trace)
        paged = ServingEngine(
            ctx=engine_ctx, batcher=ChunkedPrefillBatcher(token_budget=1024),
            num_layers=4, seed=SEED, page_size=16).run(long_trace)
        print(f"  {engine:9s} conservative: conc {base.max_concurrency:2d}"
              f"  ttft p99 {base.ttft_s.p99 * 1e3:7.1f} ms   "
              f"paged+chunked: conc {paged.max_concurrency:2d}  "
              f"ttft p99 {paged.ttft_s.p99 * 1e3:7.1f} ms  "
              f"preemptions {paged.preemptions}")


if __name__ == "__main__":
    main()
