"""Typed deployment specs: validation, round-trips, sweeps, loaders."""

import json

import numpy as np
import pytest

from repro.api import (
    Deployment,
    DeploymentSpec,
    HardwareSpec,
    ModelSpec,
    ServingSpec,
    SweepPoint,
    WorkloadSpec,
    expand_sweep,
    load_config,
    load_deployment,
    load_sweep,
)
from repro.errors import ConfigError
from repro.hw.interconnect import ParallelPlan


class TestDefaults:
    def test_empty_mapping_is_valid(self):
        spec = DeploymentSpec.from_dict({})
        assert spec == DeploymentSpec()
        assert spec.model.name == "mixtral-8x7b"
        assert spec.hardware.parallel.is_trivial
        assert spec.serving.page_size is None
        assert spec.workload.kind == "poisson"

    def test_sections_default_independently(self):
        spec = DeploymentSpec.from_dict({"model": {"engine": "pit"}})
        assert spec.model.engine == "pit"
        assert spec.serving == ServingSpec()

    def test_engine_alias_normalised(self):
        assert ModelSpec(engine="vllm").engine == "vllm-ds"
        assert ModelSpec(engine="hf").engine == "transformers"
        spec = DeploymentSpec.from_dict({"model": {"engine": "vllm"}})
        assert spec.model.engine == "vllm-ds"


_NAN, _INF = float("nan"), float("inf")

#: NaN and infinity slip past ``value <= 0``-style checks; every float
#: field must reject them with its path.
_NON_FINITE = [
    *[pytest.param({section: {name: value}}, f"{section}.{name}",
                   id=f"{section}.{name}={value}")
      for section, name, value in (
          ("serving", "horizon_s", _NAN), ("serving", "horizon_s", _INF),
          ("workload", "qps", _NAN), ("workload", "qps", _INF),
          ("workload", "routing_skew", _NAN),
          ("workload", "crowd_start_s", _NAN))],
    *[pytest.param({"workload": {"tenants": [{"name": "a", name: value}]}},
                   rf"workload.tenants\[0\].{name}",
                   id=f"workload.tenants[0].{name}={value}")
      for name, value in (
          ("token_rate_limit", _NAN), ("share", _NAN), ("share", _INF),
          ("ttft_slo_s", _NAN), ("ttft_slo_s", _INF),
          ("tpot_slo_s", _NAN), ("tpot_slo_s", _INF))],
]


class TestPathQualifiedValidation:
    """Every invalid field names its full ``section.field`` path."""

    CASES = [
        ({"model": {"name": "gpt-5"}}, "model.name"),
        ({"model": {"engine": "tensorrt"}}, "model.engine"),
        ({"model": {"num_layers": 0}}, "model.num_layers"),
        ({"model": {"flash": "yes"}}, "model.flash"),
        ({"hardware": {"gpu": "tpu-v5"}}, "hardware.gpu"),
        ({"hardware": {"link": "carrier-pigeon"}}, "hardware.link"),
        ({"hardware": {"parallel": "pp=4"}}, "hardware.parallel"),
        ({"hardware": {"parallel": "ep=0"}}, "hardware.parallel"),
        ({"hardware": {"parallel": "dp=2"}}, "hardware.parallel"),
        ({"hardware": {"streams": 0}}, "hardware.streams"),
        ({"serving": {"batcher": "speculative"}}, "serving.batcher"),
        ({"serving": {"token_budget": 0}}, "serving.token_budget"),
        ({"serving": {"batch_size": -1}}, "serving.batch_size"),
        ({"serving": {"max_running": 0}}, "serving.max_running"),
        ({"serving": {"page_size": 0}}, "serving.page_size"),
        ({"serving": {"page_size": 2.5}}, "serving.page_size"),
        ({"serving": {"placement": "random"}}, "serving.placement"),
        ({"serving": {"horizon_s": 0.0}}, "serving.horizon_s"),
        ({"serving": {"scheduler": "fifo"}}, "serving.scheduler"),
        ({"workload": {"kind": "weibull"}}, "workload.kind"),
        ({"workload": {"requests": 0}}, "workload.requests"),
        ({"workload": {"qps": 0}}, "workload.qps"),
        ({"workload": {"prompt_tokens": 0}}, "workload.prompt_tokens"),
        ({"workload": {"output_tokens": -4}}, "workload.output_tokens"),
        ({"workload": {"jitter": 1.0}}, "workload.jitter"),
        ({"workload": {"eos_sampling": 1}}, "workload.eos_sampling"),
        ({"workload": {"burst_factor": 1.0}}, "workload.burst_factor"),
        ({"workload": {"burst_len": 0}}, "workload.burst_len"),
        ({"workload": {"routing_skew": -0.5}}, "workload.routing_skew"),
        ({"workload": {"seed": 1.5}}, "workload.seed"),
        ({"workload": {"period_s": 0.0}}, "workload.period_s"),
        ({"workload": {"amplitude": 1.5}}, "workload.amplitude"),
        ({"workload": {"crowd_factor": 1.0}}, "workload.crowd_factor"),
        ({"workload": {"crowd_start_s": -1.0}},
         "workload.crowd_start_s"),
        ({"workload": {"crowd_duration_s": 0.0}},
         "workload.crowd_duration_s"),
        ({"workload": {"trace_path": ""}}, "workload.trace_path"),
        ({"workload": {"kind": "poisson", "trace_path": "t.csv"}},
         "workload.trace_path"),
        ({"workload": {"kind": "trace"}}, "workload.trace_path"),
        ({"workload": {"tenants": [{"name": ""}]}},
         r"workload.tenants\[0\]"),
        ({"workload": {"tenants": [{"name": "a", "priority": 1.5}]}},
         r"workload.tenants\[0\].priority"),
        ({"workload": {"tenants": [{"name": "a", "color": "red"}]}},
         r"workload.tenants\[0\].color"),
        ({"workload": {"tenants": [{"name": "a"}, {"name": "a"}]}},
         "workload.tenants"),
        ({"workload": {"tenants": ["prod"]}},
         r"workload.tenants\[0\]"),
    ]

    @pytest.mark.parametrize("payload,path", CASES,
                             ids=[p for _, p in CASES])
    def test_invalid_field_names_its_path(self, payload, path):
        with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
            DeploymentSpec.from_dict(payload)

    @pytest.mark.parametrize("payload,path", _NON_FINITE)
    def test_non_finite_value_rejected(self, payload, path):
        with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
            DeploymentSpec.from_dict(payload)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match=r"serving\.pagesize"):
            DeploymentSpec.from_dict({"serving": {"pagesize": 16}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="deployment"):
            DeploymentSpec.from_dict({"deployment": {}})

    def test_sweep_key_hint(self):
        with pytest.raises(ConfigError, match="top-level 'sweep'"):
            DeploymentSpec.from_dict({"sweep": {}})

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="model"):
            DeploymentSpec.from_dict({"model": "mixtral-8x7b"})


#: Pools of valid values for the randomized round-trip test.  Each
#: entry is (section, field, candidates).
_FIELD_POOLS = [
    ("model", "name", ["mixtral-8x7b", "qwen2-moe", "deepseek-moe"]),
    ("model", "engine", ["samoyeds", "vllm-ds", "megablocks",
                         "transformers", "pit"]),
    ("model", "num_layers", [None, 1, 4, 32]),
    ("model", "flash", [True, False]),
    ("hardware", "gpu", ["rtx4070s", "a100", "h100"]),
    ("hardware", "link", ["nvlink", "pcie4", "ib"]),
    ("hardware", "parallel", ["ep=1", "ep=2", "ep=4,tp=2", "tp=2",
                              {"ep": 2, "tp": 2}]),
    ("hardware", "streams", [1, 2, 4]),
    ("serving", "batcher", ["continuous", "chunked", "static"]),
    ("serving", "token_budget", [256, 4096]),
    ("serving", "batch_size", [4, 8]),
    ("serving", "max_running", [None, 8]),
    ("serving", "page_size", [None, 16, 64]),
    ("serving", "placement", ["balanced", "round_robin"]),
    ("serving", "horizon_s", [None, 1.5]),
    ("serving", "scheduler", ["youngest_first", "priority_slack"]),
    ("workload", "kind", ["poisson", "bursty", "diurnal",
                          "flash_crowd"]),
    ("workload", "requests", [1, 16, 128]),
    ("workload", "qps", [0.5, 4.0, 64.0]),
    ("workload", "prompt_tokens", [16, 512, 2048]),
    ("workload", "output_tokens", [1, 32]),
    ("workload", "jitter", [0.0, 0.5, 0.9]),
    ("workload", "eos_sampling", [True, False]),
    ("workload", "burst_factor", [2.0, 8.0]),
    ("workload", "burst_len", [1, 16]),
    ("workload", "routing_skew", [0.0, 1.2]),
    ("workload", "seed", [0, 7, 123456]),
    ("workload", "period_s", [30.0, 60.0]),
    ("workload", "amplitude", [0.0, 0.5, 1.0]),
    ("workload", "crowd_factor", [2.0, 8.0]),
    ("workload", "crowd_start_s", [0.0, 5.0]),
    ("workload", "crowd_duration_s", [1.0, 5.0]),
    ("workload", "tenants", [
        [],
        [{"name": "solo"}],
        [{"name": "prod", "priority": 5, "share": 0.3,
          "ttft_slo_s": 0.1, "tpot_slo_s": 0.05},
         {"name": "batch", "share": 0.7,
          "token_rate_limit": 1024.0, "burst_tokens": 2048}],
    ]),
]


class TestRoundTrip:
    """Property-style: random valid specs survive to_dict/from_dict."""

    def _random_payload(self, rng) -> dict:
        payload: dict = {}
        for section, field, pool in _FIELD_POOLS:
            if rng.random() < 0.5:          # omit half: defaults kick in
                continue
            payload.setdefault(section, {})[field] = \
                pool[rng.integers(len(pool))]
        return payload

    def test_randomized_specs_round_trip(self):
        rng = np.random.default_rng(20250726)
        for _ in range(200):
            payload = self._random_payload(rng)
            spec = DeploymentSpec.from_dict(payload)
            assert DeploymentSpec.from_dict(spec.to_dict()) == spec
            # and the dict form is JSON-serialisable plain data
            json.dumps(spec.to_dict())

    def test_roundtrip_preserves_parallel_plan(self):
        spec = DeploymentSpec.from_dict(
            {"hardware": {"parallel": "ep=4,tp=2"}})
        again = DeploymentSpec.from_dict(spec.to_dict())
        assert again.hardware.parallel == ParallelPlan(ep=4, tp=2)

    def test_section_specs_round_trip_standalone(self):
        from repro.api import TenantSpec
        for spec in (ModelSpec(engine="pit", num_layers=2),
                     HardwareSpec(parallel=ParallelPlan(ep=2)),
                     ServingSpec(page_size=32),
                     WorkloadSpec(kind="bursty", qps=9.0),
                     WorkloadSpec(kind="diurnal", amplitude=0.8),
                     WorkloadSpec(tenants=(
                         TenantSpec(name="prod", priority=3,
                                    ttft_slo_s=0.2),
                         TenantSpec(name="batch",
                                    token_rate_limit=512.0)))):
            assert type(spec).from_dict(spec.to_dict()) == spec


class TestOverridesAndSweep:
    def test_with_overrides_dotted_paths(self):
        base = DeploymentSpec()
        spec = base.with_overrides({"workload.qps": 8.0,
                                    "hardware.parallel": "ep=2"})
        assert spec.workload.qps == 8.0
        assert spec.hardware.parallel == ParallelPlan(ep=2)
        assert base == DeploymentSpec()     # original untouched

    def test_with_overrides_bad_path(self):
        with pytest.raises(ConfigError, match="section.field"):
            DeploymentSpec().with_overrides({"qps": 8.0})
        with pytest.raises(ConfigError, match=r"workload\.qpss"):
            DeploymentSpec().with_overrides({"workload.qpss": 8.0})

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigError, match=r"workload\.qps"):
            DeploymentSpec().with_overrides({"workload.qps": -1.0})

    def test_cartesian_expansion_order(self):
        points = expand_sweep(DeploymentSpec(), {
            "workload.qps": [1.0, 2.0],
            "serving.page_size": [None, 16],
        })
        combos = [(p.spec.workload.qps, p.spec.serving.page_size)
                  for p in points]
        # declaration order, last axis fastest — nested-loop order
        assert combos == [(1.0, None), (1.0, 16),
                          (2.0, None), (2.0, 16)]
        assert points[1].overrides == (("workload.qps", 1.0),
                                       ("serving.page_size", 16))

    def test_sweep_matches_scale_devices(self):
        """A parallel sweep expands to the same grid points as
        ``repro bench scale --devices 1,2,4`` (strong scaling)."""
        points = expand_sweep(DeploymentSpec(), {
            "hardware.parallel": ["ep=1", "ep=2", "ep=4"]})
        plans = [p.spec.hardware.parallel for p in points]
        assert plans == [ParallelPlan(ep=d) for d in (1, 2, 4)]

    def test_sweep_rejects_bad_axes(self):
        with pytest.raises(ConfigError, match="no axes"):
            expand_sweep(DeploymentSpec(), {})
        with pytest.raises(ConfigError, match=r"sweep\.workload\.qps"):
            expand_sweep(DeploymentSpec(), {"workload.qps": []})
        with pytest.raises(ConfigError, match=r"sweep\.workload\.qps"):
            expand_sweep(DeploymentSpec(), {"workload.qps": 4.0})
        with pytest.raises(ConfigError, match="unknown field"):
            expand_sweep(DeploymentSpec(), {"workload.rate": [1.0]})


class TestLoaders:
    def test_yaml_file_round_trip(self, tmp_path):
        path = tmp_path / "dep.yaml"
        path.write_text(
            "model: {engine: vllm, num_layers: 2}\n"
            "workload: {requests: 4, qps: 8.0}\n")
        spec = load_deployment(path)
        assert spec.model.engine == "vllm-ds"
        assert spec.workload.requests == 4
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec

    def test_json_file(self, tmp_path):
        path = tmp_path / "dep.json"
        path.write_text(json.dumps(
            {"serving": {"page_size": 16}}))
        assert load_deployment(path).serving.page_size == 16

    def test_empty_yaml_is_default_spec(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("# nothing but a comment\n")
        assert load_deployment(path) == DeploymentSpec()

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/nope.yaml")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_mapping_config(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="must be a mapping"):
            load_config(path)

    def test_load_deployment_rejects_sweep(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text("sweep: {workload.qps: [1.0, 2.0]}\n")
        with pytest.raises(ConfigError, match="load_sweep"):
            load_deployment(path)

    def test_bare_sweep_header_is_an_error(self, tmp_path):
        # Axes commented out under `sweep:` must not silently degrade
        # to a single run.
        path = tmp_path / "bare_sweep.yaml"
        path.write_text("workload: {requests: 4}\n"
                        "sweep:\n"
                        "#  workload.qps: [1.0, 2.0]\n")
        with pytest.raises(ConfigError, match="no axes"):
            load_sweep(path)

    def test_load_sweep_single_point_without_sweep(self, tmp_path):
        path = tmp_path / "single.yaml"
        path.write_text("workload: {requests: 4}\n")
        base, points = load_sweep(path)
        assert points == [SweepPoint(overrides=(), spec=base)]
        assert points[0].describe() == "base"

    def test_load_sweep_expands(self, tmp_path):
        path = tmp_path / "grid.yaml"
        path.write_text(
            "workload: {requests: 4}\n"
            "sweep:\n"
            "  hardware.parallel: [ep=1, ep=2]\n")
        base, points = load_sweep(path)
        assert len(points) == 2
        assert all(p.spec.workload.requests == 4 for p in points)


class TestShippedConfigs:
    """The configs under examples/configs are part of the API contract."""

    def test_every_shipped_config_loads_and_round_trips(self):
        import glob
        import os
        here = os.path.join(os.path.dirname(__file__), "..",
                            "examples", "configs")
        paths = sorted(glob.glob(os.path.join(here, "*.yaml")))
        assert len(paths) >= 3
        for path in paths:
            base, points = load_sweep(path)
            assert points, path
            for point in points:
                assert (DeploymentSpec.from_dict(point.spec.to_dict())
                        == point.spec), path

    def test_cluster_sweep_covers_scale_points(self):
        import os
        path = os.path.join(os.path.dirname(__file__), "..",
                            "examples", "configs", "cluster_sweep.yaml")
        _, points = load_sweep(path)
        plans = [p.spec.hardware.parallel for p in points]
        for devices in (1, 2, 4):
            assert ParallelPlan(ep=devices) in plans
        assert ParallelPlan(ep=4, tp=2) in plans


class TestDeploymentBuild:
    def test_build_returns_stack_triple(self):
        from repro.context import ExecutionContext
        from repro.serve.batcher import ChunkedPrefillBatcher
        spec = DeploymentSpec.from_dict({
            "serving": {"batcher": "chunked", "token_budget": 512},
            "workload": {"requests": 3}})
        ctx, batcher, trace = Deployment(spec).build()
        assert isinstance(ctx, ExecutionContext)
        assert isinstance(batcher, ChunkedPrefillBatcher)
        assert batcher.token_budget == 512
        assert len(trace) == 3

    def test_build_context_carries_plan_and_cluster(self):
        spec = DeploymentSpec.from_dict({
            "hardware": {"parallel": "ep=2", "link": "pcie4"}})
        ctx = Deployment(spec).build_context()
        assert ctx.parallel == ParallelPlan(ep=2)
        assert ctx.cluster is not None
        assert ctx.cluster.link.name == "pcie4"

    def test_trace_deterministic_per_spec(self):
        spec = DeploymentSpec.from_dict({"workload": {"requests": 5}})
        assert (Deployment(spec).build_trace()
                == Deployment(spec).build_trace())
