"""engine="auto": capability filtering, argmin dispatch, SelectionTable."""

import json

import numpy as np
import pytest

from repro.context import ExecutionContext
from repro.errors import ConfigError
from repro.hw.spec import get_gpu
from repro.moe.config import MODEL_REGISTRY
from repro.moe.layers import ENGINES, SamoyedsEngine
from repro.moe.memory_model import footprint, max_batch_size
from repro.registry import AutoEngine, SelectionTable


def fixed_engines():
    return [(name, engine) for name, engine in ENGINES.items()
            if not getattr(engine, "is_meta", False)]


def compatible_times(cfg, tokens, spec):
    """Modelled time of every fixed engine that can run the point."""
    times = {}
    for name, engine in fixed_engines():
        if not engine.supports(cfg):
            continue
        if not engine.capabilities().supports_device(spec):
            continue
        times[name] = engine.cost(cfg, tokens, spec,
                                  num_shared=0).time_s
    return times


class TestArgminGolden:
    """Acceptance: on the Figure 12/13 shape grid (power-of-two token
    counts, so the selection bucket coincides with the point), auto's
    modelled segment time equals the min over all compatible fixed
    engines."""

    @pytest.mark.parametrize("model", ["qwen2-moe", "minicpm-moe",
                                       "openmoe-34b", "mixtral-8x7b"])
    @pytest.mark.parametrize("tokens", [256, 1024, 4096])
    @pytest.mark.parametrize("gpu", ["rtx4070s", "a100"])
    def test_auto_equals_min_over_compatible(self, model, tokens, gpu):
        cfg = MODEL_REGISTRY.get(model)
        spec = get_gpu(gpu)
        auto = AutoEngine()                   # fresh table per case
        times = compatible_times(cfg, tokens, spec)
        assert times, "no compatible engine — test setup broken"
        got = auto.cost(cfg, tokens, spec, num_shared=0)
        assert got.time_s == pytest.approx(min(times.values()),
                                           rel=0, abs=0)
        assert got.detail["selected_engine"] == min(
            times, key=times.get)

    def test_never_worse_than_any_fixed_engine(self):
        cfg = MODEL_REGISTRY.get("mixtral-8x7b")
        spec = get_gpu("rtx4070s")
        auto = AutoEngine()
        for tokens in (256, 512, 2048, 8192):
            auto_s = auto.cost(cfg, tokens, spec, num_shared=0).time_s
            for _, times in [(tokens,
                              compatible_times(cfg, tokens, spec))]:
                assert auto_s <= min(times.values()) + 1e-15


class TestCapabilityFiltering:
    def test_no_sparse_alu_excludes_samoyeds(self):
        """W7900 (no sparse ALU): auto must not pick an mma.sp engine."""
        cfg = MODEL_REGISTRY.get("mixtral-8x7b")
        w7900 = get_gpu("w7900")
        auto = AutoEngine()
        names = [e.name for e in auto.compatible_engines(cfg, w7900)]
        assert "samoyeds" not in names and names
        winner = auto.cost(cfg, 4096, w7900, num_shared=0)
        assert winner.detail["selected_engine"] != "samoyeds"

    def test_unsupported_activation_excludes_fused_engines(self):
        """OpenMoE's gelu_tanh has no fused epilogue: megablocks and
        vllm-ds are not candidates (the NS markers)."""
        cfg = MODEL_REGISTRY.get("openmoe-34b")
        spec = get_gpu("rtx4070s")
        auto = AutoEngine()
        names = [e.name for e in auto.compatible_engines(cfg, spec)]
        assert "megablocks" not in names and "vllm-ds" not in names
        assert "samoyeds" in names
        assert auto.supports(cfg)

    def test_empty_candidate_set_raises(self):
        from repro.registry import Registry
        from repro.moe.layers import MoEEngine
        empty: "Registry[MoEEngine]" = Registry("engine")
        auto = AutoEngine(registry=empty)
        cfg = MODEL_REGISTRY.get("mixtral-8x7b")
        with pytest.raises(ConfigError, match="no registered engine"):
            auto.cost(cfg, 1024, get_gpu("rtx4070s"))


class TestMemoisation:
    def test_selection_recorded_per_bucket(self):
        cfg = MODEL_REGISTRY.get("mixtral-8x7b")
        spec = get_gpu("rtx4070s")
        auto = AutoEngine()
        auto.cost(cfg, 4096, spec, num_shared=0)
        assert len(auto.table) == 1
        key = next(iter(auto.table.entries))
        assert key.startswith("rtx4070s:")
        assert key.endswith(":d0.25")
        # Same bucket -> no second pricing pass, table stays put.
        auto.cost(cfg, 4096, spec, num_shared=0)
        assert len(auto.table) == 1
        # Different device -> new entry.
        auto.cost(cfg, 4096, get_gpu("a100"), num_shared=0)
        assert len(auto.table) == 2

    def test_stale_table_entry_naming_auto_does_not_self_dispatch(self):
        """A shipped/hand-edited table entry recording "auto" must not
        make the dispatcher recurse into itself; the entry is ignored
        and a fresh argmin is taken."""
        cfg = MODEL_REGISTRY.get("mixtral-8x7b")
        spec = get_gpu("rtx4070s")
        auto = AutoEngine()
        key = SelectionTable.key(
            spec.name, AutoEngine._problem_key(cfg, 4096, 0),
            auto.density)
        auto.table.record(key, "auto", 1.0)
        got = auto.cost(cfg, 4096, spec, num_shared=0)
        winner = got.detail["selected_engine"]
        assert winner != "auto"
        assert not getattr(ENGINES.get(winner), "is_meta", False)

    def test_stale_table_entry_for_now_unregistered_engine_ignored(self):
        cfg = MODEL_REGISTRY.get("mixtral-8x7b")
        spec = get_gpu("rtx4070s")
        table = SelectionTable()
        auto = AutoEngine(table=table)
        key = SelectionTable.key(
            spec.name, AutoEngine._problem_key(cfg, 4096, 0),
            auto.density)
        table.record(key, "gone-engine", 1.0)
        got = auto.cost(cfg, 4096, spec, num_shared=0)
        assert got.detail["selected_engine"] in ENGINES

    def test_models_sharing_gemm_bucket_do_not_collide(self):
        """qwen2-moe and deepseek-moe share the expert GEMM bucket
        (h=1408, i=2048) but differ in expert count/top-k, so one
        shared table must still give each its own argmin."""
        spec = get_gpu("a100")
        auto = AutoEngine()                  # ONE table for both
        for model in ("qwen2-moe", "deepseek-moe"):
            cfg = MODEL_REGISTRY.get(model)
            got = auto.cost(cfg, 4096, spec, num_shared=0)
            times = compatible_times(cfg, 4096, spec)
            assert got.time_s == pytest.approx(min(times.values()),
                                               rel=0, abs=0), model

    def test_num_shared_keys_the_memo(self):
        """The shared-expert count changes the layer argmin's inputs;
        a 0-shared selection must not be replayed for 2-shared."""
        cfg = MODEL_REGISTRY.get("mixtral-8x7b")
        spec = get_gpu("rtx4070s")
        auto = AutoEngine()
        auto.cost(cfg, 4096, spec, num_shared=0)
        auto.cost(cfg, 4096, spec, num_shared=2)
        assert len(auto.table) == 2


class TestSelectionTablePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        table = SelectionTable()
        table.record("rtx4070s:16384x4096x4096:d0.25", "samoyeds", 1e-3)
        path = tmp_path / "selection.json"
        table.save(path)
        loaded = SelectionTable.load(path)
        assert loaded.entries == table.entries
        payload = json.loads(path.read_text())
        assert payload["version"] == SelectionTable.VERSION

    def test_corrupt_json_raises_config_error_naming_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="broken.json"):
            SelectionTable.load(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"k": {"engine": "samoyeds"}}))
        with pytest.raises(ConfigError, match="version"):
            SelectionTable.load(path)

    def test_version_drift_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(ConfigError, match="version"):
            SelectionTable.load(path)

    def test_property_roundtrip_random_tables(self, tmp_path, rng):
        """Seeded-random save/load round-trips (table contents survive
        bit for bit for arbitrary buckets/densities/engines)."""
        engines = [name for name, _ in fixed_engines()]
        for case in range(20):
            table = SelectionTable()
            for _ in range(int(rng.integers(0, 12))):
                bucket = tuple(int(2 ** rng.integers(8, 15))
                               for _ in range(3))
                density = float(rng.choice([0.25, 0.5, 1.0]))
                key = SelectionTable.key(
                    str(rng.choice(["rtx4070s", "a100", "h100"])),
                    bucket, density)
                table.record(key, str(rng.choice(engines)),
                             float(rng.random()))
            path = tmp_path / f"table-{case}.json"
            table.save(path)
            assert SelectionTable.load(path).entries == table.entries


class TestFunctionalFace:
    def test_run_matches_reference(self, rng):
        """Auto's functional face is the exact reference data flow."""
        from repro.moe import TopKRouter, build_experts
        cfg = MODEL_REGISTRY.get("mixtral-8x7b")
        experts = build_experts(cfg, scale=32, seed=1)
        plan = TopKRouter(cfg.num_experts, cfg.top_k, seed=2).route(48)
        x = rng.normal(size=(48, experts[0].hidden_size))
        auto_out = ENGINES.get("auto").run(x, plan, experts)
        ref_out = ENGINES.get("transformers").run(x, plan, experts)
        np.testing.assert_allclose(auto_out, ref_out, rtol=1e-10)


class TestContextThreading:
    def test_create_context_with_auto(self):
        ctx = ExecutionContext.create("mixtral-8x7b", "auto")
        assert ctx.engine.name == "auto"
        # Tile choice threads through to the samoyeds candidate's §4.2
        # rule (8 experts -> 128) rather than the generic 64 default.
        assert ctx.effective_tile_n == \
            SamoyedsEngine().tile_rows(ctx.config)

    def test_segment_kernel_is_winners(self):
        ctx = ExecutionContext.create("mixtral-8x7b", "auto")
        kernel = ctx.segment_kernel()
        winner = ctx.engine.select(ctx.config, 4096, ctx.spec)
        expected = winner.segment_kernel(ctx.config, ctx.spec)
        assert kernel is expected or type(kernel) is type(expected)

    def test_prefill_cost_prices_winner(self):
        ctx = ExecutionContext.create("mixtral-8x7b", "auto")
        cost = ctx.prefill_cost(1024)
        assert cost.total_s > 0


class TestAutoMemoryModel:
    """Admission for auto charges the elementwise max over the engines
    the selector could pick — conservative, never over-admits."""

    def test_footprint_bounds_every_candidate(self):
        cfg = MODEL_REGISTRY.get("mixtral-8x7b")
        spec = get_gpu("rtx4070s")
        auto_fp = footprint(cfg, "auto", 1024, spec)
        for name, engine in fixed_engines():
            if not engine.supports(cfg):
                continue
            fp = footprint(cfg, name, 1024, spec)
            assert auto_fp.weights_bytes >= fp.weights_bytes
            assert auto_fp.fixed_bytes >= fp.fixed_bytes
            assert auto_fp.per_batch_bytes >= fp.per_batch_bytes

    def test_max_batch_never_exceeds_candidates(self):
        cfg = MODEL_REGISTRY.get("mixtral-8x7b")
        spec = get_gpu("a100")
        auto_mb = max_batch_size(cfg, "auto", 1024, spec)
        mins = min(max_batch_size(cfg, name, 1024, spec)
                   for name, engine in fixed_engines()
                   if engine.supports(cfg))
        assert auto_mb <= mins

    def test_third_party_engine_joins_auto_bound(self):
        """DESIGN.md's recipe: a registered engine that declares its
        footprint serves by name and joins auto's memory bound."""
        from repro.api import Deployment, DeploymentSpec
        from repro.moe.layers import VllmEngine, register_engine
        from repro.utils.units import MIB

        class Mine(VllmEngine):
            name = "mine"
            FIXED_OVERHEAD = 3000 * MIB

        cfg = MODEL_REGISTRY.get("mixtral-8x7b")
        register_engine(Mine())
        try:
            auto_fp = footprint(cfg, "auto", 1024, get_gpu("a100"))
            assert auto_fp.fixed_bytes == 3000 * MIB
            for engine in ("mine", "auto"):
                report = Deployment(DeploymentSpec.from_dict({
                    "model": {"engine": engine, "num_layers": 1},
                    "workload": {"requests": 4, "qps": 4.0,
                                 "prompt_tokens": 128,
                                 "output_tokens": 4},
                })).run()
                assert report.engine == engine
                assert report.completed == 4
        finally:
            ENGINES.unregister("mine")


class TestServeAutoReport:
    def _run(self, engine):
        from repro.api import Deployment, DeploymentSpec
        spec = DeploymentSpec.from_dict({
            "model": {"engine": engine, "num_layers": 2},
            "workload": {"requests": 6, "qps": 4.0,
                         "prompt_tokens": 128, "output_tokens": 4},
        })
        return Deployment(spec).run()

    def test_auto_run_reports_selected_engines_per_phase(self):
        report = self._run("auto")
        assert report.engine == "auto"
        assert report.completed == 6
        payload = report.to_dict()
        selected = payload["auto"]["selected"]
        assert set(selected) <= {"prefill", "decode"} and selected
        for phase, winner in selected.items():
            assert winner in ENGINES
            assert not getattr(ENGINES.get(winner), "is_meta", False)
        steps = payload["auto"]["steps"]
        assert all(sum(counts.values()) > 0
                   for counts in steps.values())

    def test_fixed_engine_report_has_no_auto_section(self):
        report = self._run("samoyeds")
        assert report.auto is None
        assert "auto" not in report.to_dict()

    def test_report_roundtrips_with_auto_section(self):
        from repro.serve.metrics import ServeReport
        report = self._run("auto")
        assert ServeReport.from_dict(report.to_dict()) == report
