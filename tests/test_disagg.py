"""Disaggregated prefill/decode serving: pools, routers, KV transfers.

Pins the subsystem's three contracts:

* **Degenerate identity** — a single ``role: both`` pool over a
  zero-cost link reproduces the colocated :class:`ServeReport` JSON
  byte for byte (the disagg layer adds nothing when there is nothing
  to disaggregate).
* **Acceptance curve** — on the shipped two-pool heterogeneous fixture
  (H100 prefill under Samoyeds, W7900 decode under vLLM) prefill-pool
  TTFT p99 improves over the colocated baseline while decode TPOT
  stays inside its SLO, and the report carries per-request KV-transfer
  seconds.
* **Router determinism** — equal-load ties resolve by stable
  ``(pool_name, rid)`` order, so reports are byte-identical across
  runs and across ``--jobs N`` executor layouts.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.sanitizer import KVTransferAuditor, SanitizerError
from repro.api import Deployment, DeploymentSpec
from repro.errors import CapacityError, ConfigError
from repro.serve.disagg import (
    DisaggServingEngine,
    PoolSpec,
    make_router,
    router_names,
    validate_pools,
)
from repro.serve.engine import ServingEngine

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..",
                          "examples", "configs")
DISAGG_YAML = os.path.join(CONFIG_DIR, "disagg_pools.yaml")


def _payload(serving=None, workload=None):
    """A small, fast deployment payload for identity tests."""
    return {
        "model": {"num_layers": 1},
        "serving": {"page_size": 16, **(serving or {})},
        "workload": {"requests": 12, "qps": 80.0, "prompt_tokens": 256,
                     "output_tokens": 8, "seed": 3, **(workload or {})},
    }


def _run_json(payload) -> str:
    report = Deployment.from_dict(payload).run()
    return json.dumps(report.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Degenerate configs reduce to the classic engine, byte for byte.
# ----------------------------------------------------------------------
class TestDegenerateColocated:
    def test_single_both_pool_is_byte_identical_to_colocated(self):
        colocated = _run_json(_payload())
        degenerate = _run_json(_payload(serving={
            "pools": [{"name": "all", "role": "both"}],
            "transfer_link": "zero-copy"}))
        assert degenerate == colocated

    def test_degenerate_builds_the_classic_engine(self):
        spec = DeploymentSpec.from_dict(_payload(serving={
            "pools": [{"name": "all", "role": "both"}]}))
        engine = Deployment(spec).build_engine()
        assert isinstance(engine, ServingEngine)
        assert not isinstance(engine, DisaggServingEngine)

    def test_degenerate_pool_overrides_apply(self):
        """A both-pool carrying its own engine equals the colocated
        spec that names that engine at the model level."""
        degenerate = _run_json(_payload(serving={
            "pools": [{"name": "all", "role": "both",
                       "engine": "vllm-ds"}]}))
        explicit = dict(_payload())
        explicit["model"] = {"num_layers": 1, "engine": "vllm-ds"}
        assert degenerate == _run_json(explicit)

    def test_multi_pool_builds_the_disagg_engine(self):
        spec = DeploymentSpec.from_dict(_payload(serving={
            "pools": [{"name": "pf", "role": "prefill"},
                      {"name": "dc", "role": "decode"}]}))
        engine = Deployment(spec).build_engine()
        assert isinstance(engine, DisaggServingEngine)


# ----------------------------------------------------------------------
# A request no pool can fit fails the same way on every topology.
# ----------------------------------------------------------------------
class TestStuckRun:
    @staticmethod
    def _error(pools=None) -> CapacityError:
        payload = {"model": {"num_layers": 1},
                   "serving": {"pools": pools} if pools else {},
                   "workload": {"requests": 4, "prompt_tokens": 200_000,
                                "output_tokens": 8, "jitter": 0.0}}
        with pytest.raises(CapacityError) as exc:
            Deployment.from_dict(payload).run()
        return exc.value

    def test_multi_pool_error_carries_the_bytes(self):
        """The prefill pool can never admit the 200k-token prompt: the
        error names what it needs and what the pool has, exactly as
        the colocated run on the same device does."""
        err = self._error([{"name": "pf", "role": "prefill"},
                           {"name": "dc", "role": "decode"}])
        assert err.required_bytes > err.available_bytes > 0
        colocated = self._error()
        assert str(err) == str(colocated)
        assert (err.required_bytes, err.available_bytes) == (
            colocated.required_bytes, colocated.available_bytes)


# ----------------------------------------------------------------------
# The shipped heterogeneous fixture: the acceptance curve.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fixture_runs():
    """The two-pool fixture's report plus its colocated reference
    (same payload minus the disagg keys)."""
    base = Deployment.from_file(DISAGG_YAML).spec
    payload = base.to_dict()
    colo_payload = {k: dict(v) for k, v in payload.items()}
    for key in ("pools", "router", "transfer_link"):
        colo_payload["serving"].pop(key, None)
    disagg = Deployment(base).run()
    colocated = Deployment.from_dict(colo_payload).run()
    return base, disagg, colocated


class TestTwoPoolFixture:
    def test_every_request_finishes(self, fixture_runs):
        base, disagg, colocated = fixture_runs
        assert disagg.completed == base.workload.requests
        assert colocated.completed == base.workload.requests

    def test_report_carries_pool_sections(self, fixture_runs):
        _, disagg, colocated = fixture_runs
        assert colocated.pools is None and colocated.transfer is None
        assert set(disagg.pools) == {"prefill", "decode"}
        prefill, decode = disagg.pools["prefill"], disagg.pools["decode"]
        assert prefill["role"] == "prefill"
        assert prefill["engine"] == "samoyeds"
        assert prefill["gpu"] == "h100"
        assert "ttft_s" in prefill and "tpot_s" not in prefill
        assert decode["role"] == "decode"
        assert decode["engine"] == "vllm-ds"
        assert decode["gpu"] == "w7900"
        assert "tpot_s" in decode and "ttft_s" not in decode
        assert prefill["requests_prefilled"] == disagg.num_requests
        assert decode["requests_finished"] == disagg.completed

    def test_transfer_section_prices_the_link(self, fixture_runs):
        base, disagg, _ = fixture_runs
        transfer = disagg.transfer
        assert transfer["link"] == "pcie4"
        assert transfer["transfers"] == disagg.num_requests
        assert transfer["bytes_total"] > 0
        assert transfer["seconds_total"] > 0
        per_request = transfer["per_request_s"]
        assert len(per_request) == disagg.num_requests
        assert all(s > 0 for s in per_request.values())
        assert abs(sum(per_request.values())
                   - transfer["seconds_total"]) < 1e-9

    def test_prefill_ttft_improves_over_colocated(self, fixture_runs):
        """The acceptance claim: dedicating a pool to prefill takes
        decode interference out of the TTFT tail."""
        _, disagg, colocated = fixture_runs
        assert disagg.ttft_s.p99 < colocated.ttft_s.p99

    def test_decode_tpot_stays_within_slo(self, fixture_runs):
        base, disagg, _ = fixture_runs
        slo_s = min(t.tpot_slo_s for t in base.workload.tenants
                    if t.tpot_slo_s is not None)
        tpot_p99 = disagg.pools["decode"]["tpot_s"]["p99"]
        assert tpot_p99 <= slo_s

    def test_sanitized_run_is_byte_identical(self, fixture_runs):
        """The sanitizer wrappers and the KV-transfer auditor must be
        observers: enabling them changes nothing in the report."""
        base, disagg, _ = fixture_runs
        payload = base.to_dict()
        payload["serving"]["sanitize"] = True
        sanitized = Deployment.from_dict(payload).run()
        assert (json.dumps(sanitized.to_dict(), sort_keys=True)
                == json.dumps(disagg.to_dict(), sort_keys=True))


# ----------------------------------------------------------------------
# Satellite: router tie-breaking determinism.
# ----------------------------------------------------------------------
class _View:
    """Minimal PoolView for unit-testing policies."""

    def __init__(self, name, outstanding_tokens=0):
        self.name = name
        self.outstanding_tokens = outstanding_tokens


class TestRouterPolicies:
    def test_registry_lists_the_shipped_policies(self):
        assert router_names() == ["least_outstanding_tokens",
                                  "round_robin", "slo_slack"]

    def test_make_router_rejects_unknown_names(self):
        with pytest.raises(ConfigError, match="router"):
            make_router("wild-west")

    def test_round_robin_cycles_in_name_order(self):
        router = make_router("round_robin")
        pools = [_View("a"), _View("b"), _View("c")]
        picks = [router.select(pools, None, None, "prefill").name
                 for _ in range(5)]
        assert picks == ["a", "b", "c", "a", "b"]

    def test_round_robin_counts_phases_independently(self):
        router = make_router("round_robin")
        pools = [_View("a"), _View("b")]
        assert router.select(pools, None, None, "prefill").name == "a"
        assert router.select(pools, None, None, "decode").name == "a"
        assert router.select(pools, None, None, "prefill").name == "b"

    def test_least_outstanding_breaks_ties_by_name(self):
        router = make_router("least_outstanding_tokens")
        pools = [_View("b", 10), _View("a", 10), _View("c", 5)]
        assert router.select(pools, None, None, "decode").name == "c"
        pools = [_View("b", 10), _View("a", 10)]
        assert router.select(pools, None, None, "decode").name == "a"

    def test_slo_slack_separates_deadline_from_besteffort(self):
        from repro.workloads import TenantSpec
        router = make_router("slo_slack")
        pools = [_View("a", 100), _View("b", 10)]
        prod = TenantSpec(name="prod", ttft_slo_s=0.1)
        # Deadline-bound traffic joins the emptiest pool...
        assert router.select(pools, None, prod, "prefill").name == "b"
        # ...while best-effort traffic packs onto the busiest.
        assert router.select(pools, None, None, "prefill").name == "a"

    def test_slo_slack_ties_resolve_by_name(self):
        router = make_router("slo_slack")
        pools = [_View("b", 10), _View("a", 10)]
        assert router.select(pools, None, None, "prefill").name == "a"

    def test_slo_slack_rejects_unknown_phase(self):
        router = make_router("slo_slack")
        with pytest.raises(ConfigError, match="phase"):
            router.select([_View("a")], None, None, "verify")


class TestRouterDeterminism:
    """Symmetric pools maximise tie frequency; reports must still be
    a pure function of the spec."""

    @pytest.mark.parametrize("router", ["round_robin",
                                        "least_outstanding_tokens",
                                        "slo_slack"])
    def test_symmetric_pools_replay_byte_identical(self, router):
        payload = _payload(serving={
            "router": router,
            "pools": [{"name": "pf0", "role": "prefill"},
                      {"name": "pf1", "role": "prefill"},
                      {"name": "dc0", "role": "decode"},
                      {"name": "dc1", "role": "decode"}]})
        assert _run_json(payload) == _run_json(payload)


# ----------------------------------------------------------------------
# Satellite: the KV-transfer conservation auditor.
# ----------------------------------------------------------------------
class _Ledger:
    """Fake ledger: residency is exactly its ``_context`` keys."""

    def __init__(self, resident=()):
        self._context = {rid: object() for rid in resident}


class TestKVTransferAuditor:
    def test_balanced_transfer_passes(self):
        auditor = KVTransferAuditor()
        auditor.transfer_started(7, "pf", "dc", 4096.0)
        auditor.transfer_completed(7, 4096.0, _Ledger(), _Ledger([7]))
        auditor.assert_drained()

    def test_relative_tolerance_admits_float_noise(self):
        auditor = KVTransferAuditor()
        charged = 2.0 * 2**30
        auditor.transfer_started(1, "pf", "dc", charged)
        auditor.transfer_completed(1, charged * (1 + 1e-12),
                                   _Ledger(), _Ledger([1]))

    def test_duplicate_start_raises(self):
        auditor = KVTransferAuditor()
        auditor.transfer_started(1, "pf", "dc", 100.0)
        with pytest.raises(SanitizerError, match="duplicate"):
            auditor.transfer_started(1, "pf", "dc2", 100.0)

    def test_zero_charge_raises(self):
        auditor = KVTransferAuditor()
        with pytest.raises(SanitizerError, match="charged"):
            auditor.transfer_started(1, "pf", "dc", 0.0)

    def test_unmatched_completion_raises(self):
        auditor = KVTransferAuditor()
        with pytest.raises(SanitizerError, match="never"):
            auditor.transfer_completed(9, 100.0, _Ledger(), _Ledger([9]))

    def test_conservation_violation_raises(self):
        auditor = KVTransferAuditor()
        auditor.transfer_started(1, "pf", "dc", 100.0)
        with pytest.raises(SanitizerError, match="conservation"):
            auditor.transfer_completed(1, 50.0, _Ledger(), _Ledger([1]))

    def test_dual_residency_raises(self):
        auditor = KVTransferAuditor()
        auditor.transfer_started(1, "pf", "dc", 100.0)
        with pytest.raises(SanitizerError, match="dual residency"):
            auditor.transfer_completed(1, 100.0, _Ledger([1]),
                                       _Ledger([1]))

    def test_lost_residency_raises(self):
        auditor = KVTransferAuditor()
        auditor.transfer_started(1, "pf", "dc", 100.0)
        with pytest.raises(SanitizerError, match="lost residency"):
            auditor.transfer_completed(1, 100.0, _Ledger(), _Ledger())

    def test_undrained_transfer_raises(self):
        auditor = KVTransferAuditor()
        auditor.transfer_started(3, "pf", "dc", 100.0)
        with pytest.raises(SanitizerError, match="on the wire"):
            auditor.assert_drained()


# ----------------------------------------------------------------------
# Pool and spec validation.
# ----------------------------------------------------------------------
class TestPoolValidation:
    def test_rejects_unknown_role(self):
        with pytest.raises(ConfigError, match="role:"):
            PoolSpec(name="p", role="verify")

    def test_rejects_unknown_gpu(self):
        with pytest.raises(ConfigError, match="gpu:"):
            PoolSpec(name="p", gpu="h1000")

    def test_rejects_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown field"):
            PoolSpec.from_dict({"name": "p", "gpus": "h100"})

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigError, match="duplicate"):
            validate_pools([PoolSpec(name="a", role="prefill"),
                            PoolSpec(name="a", role="decode")])

    def test_rejects_phase_starvation(self):
        with pytest.raises(ConfigError, match="decode-capable"):
            validate_pools([PoolSpec(name="a", role="prefill")])
        with pytest.raises(ConfigError, match="prefill-capable"):
            validate_pools([PoolSpec(name="a", role="decode")])

    def test_spec_errors_carry_config_paths(self):
        with pytest.raises(ConfigError, match=r"serving\.pools\[1\]\.role"):
            DeploymentSpec.from_dict(_payload(serving={
                "pools": [{"name": "pf", "role": "prefill"},
                          {"name": "dc", "role": "verify"}]}))
        with pytest.raises(ConfigError, match=r"serving\.pools"):
            DeploymentSpec.from_dict(_payload(serving={
                "pools": [{"name": "pf", "role": "prefill"}]}))
        with pytest.raises(ConfigError, match=r"serving\.router"):
            DeploymentSpec.from_dict(_payload(serving={
                "router": "wild-west",
                "pools": [{"name": "pf", "role": "prefill"},
                          {"name": "dc", "role": "decode"}]}))
        with pytest.raises(ConfigError, match=r"serving\.transfer_link"):
            DeploymentSpec.from_dict(_payload(serving={
                "transfer_link": "carrier-pigeon",
                "pools": [{"name": "pf", "role": "prefill"},
                          {"name": "dc", "role": "decode"}]}))

    def test_disagg_spec_round_trips(self):
        spec = DeploymentSpec.from_dict(_payload(serving={
            "router": "slo_slack", "transfer_link": "nvlink",
            "pools": [{"name": "pf", "role": "prefill",
                       "gpu": "h100", "engine": "samoyeds"},
                      {"name": "dc", "role": "decode",
                       "gpu": "w7900", "engine": "vllm-ds"}]}))
        again = DeploymentSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_colocated_payload_shape_is_unchanged(self):
        """Specs without pools must not grow new keys — the sweep
        wire format and saved reports stay stable."""
        payload = DeploymentSpec.from_dict(_payload()).to_dict()
        for key in ("pools", "router", "transfer_link"):
            assert key not in payload["serving"]


# ----------------------------------------------------------------------
# CLI surfaces.
# ----------------------------------------------------------------------
SMALL_DISAGG_YAML = """\
model: {name: mixtral-8x7b, engine: samoyeds, num_layers: 1}
hardware: {gpu: h100}
serving:
  page_size: 16
  pools:
    - {name: pf, role: prefill}
    - {name: dc, role: decode, gpu: w7900, engine: vllm-ds}
workload:
  kind: poisson
  requests: 10
  qps: 120.0
  prompt_tokens: 256
  output_tokens: 8
  seed: 3
"""


class TestDisaggCLI:
    def test_parse_pools_resolves_engine_aliases(self):
        from repro.bench.cli import _parse_pools
        pools = _parse_pools("pf:prefill:h100,dc:decode:w7900:vllm")
        assert pools == [
            {"name": "pf", "role": "prefill", "gpu": "h100"},
            {"name": "dc", "role": "decode", "gpu": "w7900",
             "engine": "vllm-ds"}]

    def test_parse_pools_rejects_malformed_entries(self):
        from repro.bench.cli import _parse_pools
        with pytest.raises(ConfigError, match="--pools"):
            _parse_pools("just-a-name")

    def test_list_routers(self, capsys):
        from repro.__main__ import main as repro_main
        assert repro_main(["list", "routers"]) == 0
        out = capsys.readouterr().out
        for name in ("round_robin", "least_outstanding_tokens",
                     "slo_slack"):
            assert name in out

    def test_disagg_sweep_serial_and_parallel_agree(self, tmp_path,
                                                    capsys):
        from repro.bench.cli import main
        cfg = tmp_path / "disagg.yaml"
        cfg.write_text(SMALL_DISAGG_YAML)
        serial = tmp_path / "serial.json"
        jobs = tmp_path / "jobs.json"
        assert main(["disagg", str(cfg), "--splits", "1:1,2:1",
                     "--output", str(serial)]) == 0
        assert main(["disagg", str(cfg), "--splits", "1:1,2:1",
                     "--jobs", "2", "--output", str(jobs)]) == 0
        capsys.readouterr()
        assert serial.read_text() == jobs.read_text()
        payload = json.loads(serial.read_text())
        assert [p["split"] for p in payload["points"]] == [
            "colocated", "1:1", "2:1"]
        for point in payload["points"]:
            assert point["report"]["completed"] == 10
        # The replicated 2:1 point carries per-pool sections for both
        # prefill replicas.
        two_one = payload["points"][2]["report"]
        assert set(two_one["pools"]) == {"pf0", "pf1", "dc"}

    def test_disagg_rejects_both_role_templates(self, tmp_path,
                                                capsys):
        from repro.bench.cli import main
        cfg = tmp_path / "both.yaml"
        cfg.write_text(SMALL_DISAGG_YAML.replace(
            "role: prefill", "role: both"))
        assert main(["disagg", str(cfg)]) == 2
        assert "role=both" in capsys.readouterr().err

    def test_disagg_requires_pools(self, tmp_path, capsys):
        from repro.bench.cli import main
        cfg = tmp_path / "colo.yaml"
        cfg.write_text("workload: {requests: 4}\n")
        assert main(["disagg", str(cfg)]) == 2
        assert "serving.pools" in capsys.readouterr().err
