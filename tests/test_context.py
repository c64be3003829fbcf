"""ExecutionContext: the shared configuration object of the cost stack."""

import pytest

from repro.context import ExecutionContext, resolve_engine
from repro.errors import ConfigError
from repro.hw import get_gpu
from repro.moe import MODEL_REGISTRY
from repro.moe.layers import ENGINES, SamoyedsEngine
from repro.models.runner import model_point

CFG = MODEL_REGISTRY["mixtral-8x7b"]


class TestConstruction:
    def test_create_from_names(self):
        ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds", "a100")
        assert ctx.config is CFG
        assert isinstance(ctx.engine, SamoyedsEngine)
        assert ctx.spec.name == "a100"
        assert ctx.flash and ctx.streams == 1

    def test_create_from_objects(self, spec):
        ctx = ExecutionContext.create(CFG, ENGINES["pit"], spec)
        assert ctx.engine.name == "pit" and ctx.spec is spec

    def test_default_gpu(self):
        assert ExecutionContext.create(CFG).spec.name == "rtx4070s"

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError):
            ExecutionContext.create("not-a-model")
        with pytest.raises(ConfigError):
            ExecutionContext.create(CFG, "tensorrt")
        with pytest.raises(ConfigError):
            resolve_engine("nope")

    def test_invalid_streams_rejected(self, spec):
        with pytest.raises(ConfigError):
            ExecutionContext.create(CFG, "samoyeds", spec, streams=0)
        with pytest.raises(ConfigError):
            ExecutionContext.create(CFG, "samoyeds", spec, tile_n=-1)


class TestDerived:
    def test_effective_tile_n_tracks_engine(self, spec):
        few = ExecutionContext.create(CFG, "samoyeds", spec)
        many = ExecutionContext.create("qwen2-moe", "samoyeds", spec)
        assert few.effective_tile_n == 128      # 8 experts
        assert many.effective_tile_n == 64      # 60 experts (§4.2)
        assert ExecutionContext.create(CFG, "pit",
                                       spec).effective_tile_n == 64

    def test_tile_n_override_wins(self, spec):
        ctx = ExecutionContext.create(CFG, "samoyeds", spec, tile_n=32)
        assert ctx.effective_tile_n == 32

    def test_footprint_and_max_batch(self, a100):
        from repro.moe.memory_model import max_batch_size
        ctx = ExecutionContext.create(CFG, "samoyeds", a100)
        assert ctx.max_batch(1024) == max_batch_size(CFG, "samoyeds",
                                                     1024, a100)

    def test_phase_costs(self, a100):
        ctx = ExecutionContext.create(CFG, "samoyeds", a100)
        prefill = ctx.prefill_cost(512, batch=1)
        decode = ctx.decode_cost(512, batch=1)
        assert prefill.phase == "prefill" and decode.phase == "decode"
        assert decode.total_s < prefill.total_s

    def test_with_engine_preserves_rest(self, a100):
        ctx = ExecutionContext.create(CFG, "samoyeds", a100, streams=4,
                                      flash=False)
        other = ctx.with_engine("vllm-ds")
        assert other.engine.name == "vllm-ds"
        assert other.streams == 4 and not other.flash


class TestRunnerIntegration:
    def test_model_point_ctx(self, a100):
        ctx = ExecutionContext.create(CFG, "vllm-ds", a100)
        point = model_point(ctx, batch=1, seq_len=512)
        assert point.engine == "vllm-ds" and point.tokens_per_s > 0
