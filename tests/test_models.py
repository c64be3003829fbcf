"""Attention, decoder breakdown and the end-to-end runner."""

import pytest

from repro.context import ExecutionContext
from repro.errors import CapacityError, ConfigError
from repro.models import (
    attention_cost,
    decoder_cost,
    end_to_end_speedups,
    flash_attention_cost,
    model_latency,
    naive_attention_cost,
    throughput_sweep,
)
from repro.models.runner import model_point
from repro.moe import MODEL_REGISTRY

CFG = MODEL_REGISTRY["mixtral-8x7b"]


class TestAttention:
    def test_flash_is_faster_than_naive(self, spec):
        naive = naive_attention_cost(CFG, 4096, spec)
        flash = flash_attention_cost(CFG, 4096, spec)
        assert flash.total_s < naive.total_s

    def test_flash_removes_softmax_pass(self, spec):
        flash = flash_attention_cost(CFG, 4096, spec)
        assert flash.softmax_s == 0.0
        assert flash.flash

    def test_quadratic_core_growth(self, spec):
        short = naive_attention_cost(CFG, 1024, spec)
        long = naive_attention_cost(CFG, 4096, spec)
        assert long.core_s > 8 * short.core_s

    def test_dispatch(self, spec):
        assert attention_cost(CFG, 1024, spec, flash=True).flash
        assert not attention_cost(CFG, 1024, spec, flash=False).flash

    def test_batch_scales_linearly(self, spec):
        one = flash_attention_cost(CFG, 1024, spec, batch=1)
        four = flash_attention_cost(CFG, 1024, spec, batch=4)
        assert four.core_s == pytest.approx(4 * one.core_s, rel=0.01)


class TestDecoder:
    def test_fractions_sum_to_one(self, spec):
        bd = decoder_cost(CFG, 4096, spec)
        assert sum(bd.fractions().values()) == pytest.approx(1.0)

    def test_flash_raises_moe_share(self, spec):
        """Figure 2's core observation."""
        no_flash = decoder_cost(CFG, 4096, spec, flash=False)
        flash = decoder_cost(CFG, 4096, spec, flash=True)
        assert flash.moe_fraction > no_flash.moe_fraction

    def test_moe_dominates_with_flash(self, spec):
        for name, cfg in MODEL_REGISTRY.items():
            bd = decoder_cost(cfg, min(4096, cfg.max_seq_len), spec)
            assert bd.moe_fraction > 0.5, name

    def test_engine_by_name_or_instance(self, spec):
        from repro.moe.layers import SamoyedsEngine
        by_name = decoder_cost(CFG, 1024, spec, engine="samoyeds")
        by_inst = decoder_cost(CFG, 1024, spec, engine=SamoyedsEngine())
        assert by_name.moe_s == pytest.approx(by_inst.moe_s)


class TestRunner:
    def test_latency_respects_max_seq(self, spec):
        cfg = MODEL_REGISTRY["openmoe-34b"]
        bd = model_latency(ExecutionContext.create(cfg, "samoyeds", spec),
                           seq_len=4096, check_memory=False)
        # OpenMoE caps at 2048; the runner must clamp.
        assert bd.total_s < model_latency(
            ExecutionContext.create(CFG, "samoyeds", spec), seq_len=4096,
            check_memory=False).total_s * 10

    def test_memory_check_raises(self, spec):
        cfg = MODEL_REGISTRY["mixtral-8x22b"]
        ctx = ExecutionContext.create(cfg, "megablocks", spec)
        with pytest.raises(CapacityError):
            model_latency(ctx, batch=1, seq_len=1024)

    def test_unknown_engine_rejected(self, spec):
        with pytest.raises(ConfigError):
            ExecutionContext.create(CFG, "tensorrt", spec)

    def test_model_point_throughput(self, spec):
        point = model_point(ExecutionContext.create(CFG, "samoyeds", spec),
                            batch=1, seq_len=1024)
        assert point.tokens_per_s == pytest.approx(
            1024 / point.latency_s)

    def test_throughput_sweep_marks_ooms(self, spec):
        cfg = MODEL_REGISTRY["mixtral-8x22b"]
        sweep = throughput_sweep(ExecutionContext.create(cfg, gpu=spec),
                                 [1, 512], 1024,
                                 engines=["transformers", "samoyeds"])
        assert sweep["transformers"][1] is None   # 512 batches: OOM
        assert sweep["samoyeds"][0] is not None

    def test_end_to_end_speedups_shape(self, spec):
        speed = end_to_end_speedups(ExecutionContext.create(CFG, gpu=spec),
                                    batch=1, seq_len=2048)
        assert speed["transformers"] == 1.0
        assert speed["samoyeds"] > 1.0

    def test_openmoe_ns_markers(self, spec):
        ctx = ExecutionContext.create("openmoe-34b", gpu=spec)
        speed = end_to_end_speedups(ctx, batch=1, seq_len=2048)
        assert speed["megablocks"] is None
        assert speed["vllm-ds"] is None
        assert speed["samoyeds"] is not None

    def test_default_seq_is_model_max(self, spec):
        """No hard-coded 4096: the default comes from config.max_seq_len."""
        cfg = MODEL_REGISTRY["openmoe-34b"]        # max_seq_len = 2048
        ctx = ExecutionContext.create(cfg, gpu=spec)
        default = end_to_end_speedups(ctx, batch=1)
        explicit = end_to_end_speedups(ctx, batch=1,
                                       seq_len=cfg.max_seq_len)
        assert default == explicit
        shorter = end_to_end_speedups(ctx, batch=1, seq_len=1024)
        assert default != shorter


class TestDecodePhase:
    def test_decode_breakdown_marked(self, spec):
        from repro.models import decoder_decode_cost
        bd = decoder_decode_cost(CFG, 1024, spec, engine="samoyeds",
                                 batch=4)
        assert bd.phase == "decode"
        assert decoder_cost(CFG, 1024, spec).phase == "prefill"

    def test_decode_much_cheaper_than_prefill(self, spec):
        # The gap is bounded by per-expert tile padding: even one decode
        # token pays for tile_n rows per touched expert (§6.2), so the
        # ratio grows with sequence length rather than being ~seq_len.
        from repro.models import decoder_decode_cost
        prefill = decoder_cost(CFG, 4096, spec, engine="samoyeds")
        decode = decoder_decode_cost(CFG, 4096, spec, engine="samoyeds",
                                     batch=1)
        assert decode.total_s < prefill.total_s / 5

    def test_decode_attention_linear_in_context(self, spec):
        from repro.models import decode_attention_cost
        short = decode_attention_cost(CFG, 1024, spec)
        long = decode_attention_cost(CFG, 8192, spec)
        assert long.core_s == pytest.approx(8 * short.core_s, rel=0.01)

    def test_decode_attention_memory_bound(self, spec):
        """KV streaming dominates: core time >= cache bytes / bandwidth."""
        from repro.models import decode_attention_cost
        context = 4096
        cost = decode_attention_cost(CFG, context, spec, batch=1)
        kv_bytes = 2.0 * 2.0 * context * CFG.hidden_size
        assert cost.core_s >= kv_bytes / spec.dram_bandwidth * 0.999
