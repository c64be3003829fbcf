"""Golden equivalence: spec-driven runs vs directly built engines.

The acceptance contract of the declarative API: a default-shaped
``Deployment.run()`` report is *byte-identical* (via ``to_dict()``)
to a hand-built ``ServingEngine`` over the equivalent
``ExecutionContext`` — for plain serving, paged admission, and an
ep=4,tp=2 cluster grid — and a ``sweep:`` grid expands to the same
points as ``repro bench scale``.
"""

import json
import os

import pytest

from repro.api import Deployment, DeploymentSpec, load_sweep
from repro.context import ExecutionContext
from repro.errors import ConfigError
from repro.serve import (
    ChunkedPrefillBatcher,
    PercentileSummary,
    ServeReport,
    ServingEngine,
    poisson_trace,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..",
                          "examples", "configs")


class TestGoldenEquivalence:
    def test_serve_default_config_matches_legacy_simulate(self):
        """The shipped serve_default.yaml IS its hand-built engine."""
        spec = Deployment.from_file(
            os.path.join(CONFIG_DIR, "serve_default.yaml")).spec
        report = Deployment(spec).run()
        w = spec.workload
        ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds",
                                      "rtx4070s")
        direct = ServingEngine(ctx=ctx, num_layers=4, seed=w.seed).run(
            poisson_trace(w.requests, w.qps,
                          prompt_tokens=w.prompt_tokens,
                          output_tokens=w.output_tokens, seed=w.seed))
        assert report.to_dict() == direct.to_dict()

    def test_paged_run_matches_legacy(self):
        spec = DeploymentSpec.from_dict({
            "model": {"num_layers": 2},
            "serving": {"batcher": "chunked", "token_budget": 512,
                        "page_size": 16},
            "workload": {"requests": 8, "qps": 8.0,
                         "prompt_tokens": 256, "output_tokens": 6,
                         "eos_sampling": True, "seed": 11}})
        report = Deployment(spec).run()
        direct = ServingEngine(
            ctx=ExecutionContext.create("mixtral-8x7b"),
            batcher=ChunkedPrefillBatcher(token_budget=512),
            num_layers=2, seed=11, page_size=16).run(
                Deployment(spec).build_trace())
        assert report.to_dict() == direct.to_dict()

    def test_cluster_ep4_tp2_matches_legacy(self):
        spec = DeploymentSpec.from_dict({
            "model": {"num_layers": 2},
            "hardware": {"parallel": "ep=4,tp=2", "link": "pcie4"},
            "workload": {"requests": 8, "qps": 16.0,
                         "prompt_tokens": 128, "output_tokens": 4,
                         "seed": 5}})
        report = Deployment(spec).run()
        ctx = ExecutionContext.create("mixtral-8x7b",
                                      parallel="ep=4,tp=2", link="pcie4")
        direct = ServingEngine(ctx=ctx, num_layers=2, seed=5).run(
            Deployment(spec).build_trace())
        assert report.to_dict() == direct.to_dict()
        assert report.cluster["parallel"]["ep"] == 4
        assert report.cluster["parallel"]["tp"] == 2

    def test_degenerate_pool_inherits_hardware_parallel(self):
        """A one-pool ``role: both`` spec is colocated serving: a pool
        that restates the device still runs ``hardware.parallel``, and
        its report equals the pool-free spec's byte for byte."""
        def payload(**serving):
            return {"model": {"num_layers": 1},
                    "hardware": {"gpu": "a100", "parallel": "ep=2"},
                    "serving": serving,
                    "workload": {"requests": 4, "qps": 8.0,
                                 "prompt_tokens": 64,
                                 "output_tokens": 4, "seed": 5}}

        plain = Deployment.from_dict(payload())
        restated = Deployment.from_dict(payload(
            pools=[{"name": "p", "role": "both", "gpu": "a100"}]))
        assert restated.build_engine().ctx.parallel.ep == 2
        assert (json.dumps(restated.run().to_dict())
                == json.dumps(plain.run().to_dict()))

    def test_sweep_points_match_scale_strong_series(self):
        """cluster_sweep.yaml's ep=1,2,4 points equal engines built
        directly for the points `repro bench scale --devices 1,2,4`
        runs."""
        _, points = load_sweep(
            os.path.join(CONFIG_DIR, "cluster_sweep.yaml"))
        by_plan = {p.spec.hardware.parallel.describe(): p.spec
                   for p in points}
        for devices in (1, 2, 4):
            spec = by_plan[f"ep={devices},tp=1,dp=1"]
            w = spec.workload
            report = Deployment(spec).run()
            ctx = ExecutionContext.create(
                spec.model.name, spec.model.engine, spec.hardware.gpu,
                parallel=f"ep={devices}", link=spec.hardware.link)
            direct = ServingEngine(
                ctx=ctx, num_layers=spec.model.num_layers,
                seed=w.seed).run(
                    poisson_trace(w.requests, w.qps,
                                  prompt_tokens=w.prompt_tokens,
                                  output_tokens=w.output_tokens,
                                  seed=w.seed))
            assert report.to_dict() == direct.to_dict(), devices


class TestTypedReport:
    def test_report_fields_are_typed_summaries(self):
        spec = DeploymentSpec.from_dict({
            "model": {"num_layers": 2},
            "workload": {"requests": 4, "qps": 8.0,
                         "prompt_tokens": 64, "output_tokens": 4}})
        report = Deployment(spec).run()
        assert isinstance(report, ServeReport)
        assert isinstance(report.ttft_s, PercentileSummary)
        assert report.ttft_s.p50 == report.ttft_s.to_dict()["p50"]
        assert list(report.ttft_s.to_dict()) == [
            "p50", "p90", "p99", "mean", "max"]

    def test_report_round_trips_through_json(self):
        spec = DeploymentSpec.from_dict({
            "model": {"num_layers": 2},
            "workload": {"requests": 4, "qps": 8.0,
                         "prompt_tokens": 64, "output_tokens": 4}})
        report = Deployment(spec).run()
        payload = json.loads(json.dumps(report.to_dict()))
        again = ServeReport.from_dict(payload)
        assert again == report
        assert again.to_dict() == report.to_dict()

    def test_report_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown report keys"):
            ServeReport.from_dict({"engine": "samoyeds", "bogus": 1})

    def test_summary_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="percentile"):
            PercentileSummary.from_dict({"p50": 0.0, "p75": 1.0})

    def test_summary_from_dict_rejects_missing_keys(self):
        # A truncated saved payload must not zero-fill into plausible
        # latencies.
        with pytest.raises(ConfigError, match="missing percentile"):
            PercentileSummary.from_dict({"p50": 1.0})


class TestDeploymentRun:
    def test_explicit_trace_overrides_spec_trace(self):
        spec = DeploymentSpec.from_dict({
            "model": {"num_layers": 2},
            "workload": {"requests": 4, "qps": 8.0,
                         "prompt_tokens": 64, "output_tokens": 4}})
        short = poisson_trace(2, 8.0, prompt_tokens=64,
                              output_tokens=4, seed=3)
        report = Deployment(spec).run(short)
        assert report.num_requests == 2

    def test_horizon_spec_yields_empty_report(self):
        spec = DeploymentSpec.from_dict({
            "model": {"num_layers": 2},
            "serving": {"horizon_s": 1e-9},
            "workload": {"requests": 4, "qps": 8.0,
                         "prompt_tokens": 64, "output_tokens": 4}})
        report = Deployment(spec).run()
        assert report.completed == 0
        assert report.ttft_s == PercentileSummary.zero()

    def test_max_steps_exceeded_raises(self):
        spec = DeploymentSpec.from_dict({
            "model": {"num_layers": 1},
            "workload": {"requests": 2, "output_tokens": 20}})
        with pytest.raises(ConfigError,
                           match="exceeded 5 steps; trace too large"):
            Deployment(spec).run(max_steps=5)

    def test_from_file_missing(self):
        with pytest.raises(ConfigError):
            Deployment.from_file("/nonexistent/cfg.yaml")


class TestEmptyYamlSections:
    def test_bare_section_headers_mean_defaults(self, tmp_path):
        # A `model:` header with all fields commented out parses to
        # None; it must behave like an omitted section.
        path = tmp_path / "bare.yaml"
        path.write_text("model:\n"
                        "serving:\n"
                        "workload: {requests: 4}\n")
        spec = Deployment.from_file(path).spec
        assert spec.model == DeploymentSpec().model
        assert spec.workload.requests == 4
