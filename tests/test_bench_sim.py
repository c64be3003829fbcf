"""Tests for ``repro bench sim`` (:mod:`repro.bench.simbench`).

The benchmark itself is exercised at toy scale — the point here is
the contract (trace determinism, payload shape, the regression gate),
not the measured numbers.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import simbench
from repro.bench.cli import main
from repro.errors import ConfigError


class TestSyntheticTrace:
    def test_deterministic_for_a_seed(self):
        a = simbench.synthetic_trace(50, seed=3)
        b = simbench.synthetic_trace(50, seed=3)
        assert [(r.arrival_s, r.prompt_tokens, r.output_tokens)
                for r in a] == [
            (r.arrival_s, r.prompt_tokens, r.output_tokens) for r in b]

    def test_seed_changes_trace(self):
        a = simbench.synthetic_trace(50, seed=3)
        b = simbench.synthetic_trace(50, seed=4)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in b]

    def test_chat_style_lengths(self):
        trace = simbench.synthetic_trace(200, seed=1)
        assert all(64 <= r.prompt_tokens <= 512 for r in trace)
        assert all(256 <= r.output_tokens <= 512 for r in trace)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(ConfigError):
            simbench.synthetic_trace(0)
        with pytest.raises(ConfigError):
            simbench.synthetic_trace(10, rate_qps=0.0)


class TestRunBenchmark:
    def test_payload_shape_and_consistency(self):
        payload = simbench.run_benchmark(requests=30)
        assert payload["version"] == simbench.BENCH_VERSION
        assert payload["workload"]["requests"] == 30
        assert payload["workload"]["pairs"] == simbench.PAIRS
        stats = payload["event_core"]
        assert stats["requests"] == stats["completed"] == 30
        assert stats["wall_s"] > 0
        assert stats["requests_per_s"] > 0
        assert stats["steps"] > 0
        calibration = payload["calibration"]
        assert calibration["ops_per_slice"] == simbench.CALIBRATION_OPS
        assert calibration["ops_per_s"] > 0
        normalised = payload["normalised"]
        assert len(normalised["pairs"]) == simbench.PAIRS
        assert min(normalised["pairs"]) \
            <= normalised["requests_per_mop"] <= max(normalised["pairs"])
        json.dumps(payload)           # must be JSON-serialisable

    def test_requests_split_evenly_over_pairs(self):
        payload = simbench.run_benchmark(requests=25)
        assert payload["workload"]["requests"] == 25
        assert payload["event_core"]["requests"] == 2 * simbench.PAIRS

    def test_fewer_requests_than_pairs_rejected(self):
        with pytest.raises(ConfigError, match="at least"):
            simbench.run_benchmark(requests=simbench.PAIRS - 1)


class TestCheckRegression:
    def _payload(self, requests_per_mop):
        return {"normalised": {"requests_per_mop": requests_per_mop}}

    def test_passes_within_tolerance(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"sim_requests_per_mop": 1000.0}))
        assert simbench.check_regression(self._payload(800.0),
                                         baseline) is None

    def test_fails_below_floor(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"sim_requests_per_mop": 1000.0}))
        failure = simbench.check_regression(self._payload(600.0), baseline)
        assert failure is not None
        assert "regression" in failure

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            simbench.check_regression(self._payload(1.0),
                                      tmp_path / "nope.json")

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sim_requests_per_mop": -1}))
        with pytest.raises(ConfigError):
            simbench.check_regression(self._payload(1.0), bad)

    @pytest.mark.parametrize("tolerance", [1.5, 1.0, -1.0])
    def test_tolerance_outside_unit_interval_raises(self, tmp_path,
                                                    tolerance):
        """A tolerance of 1 or more passes anything; a negative one
        raises the floor above the baseline."""
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"sim_requests_per_mop": 1000.0}))
        with pytest.raises(ConfigError, match="tolerance"):
            simbench.check_regression(self._payload(1.0), baseline,
                                      tolerance=tolerance)

    def test_checked_in_baseline_is_valid(self):
        """The repo's own baseline file must satisfy the gate's schema
        (a huge measured number trivially passes against it)."""
        assert simbench.check_regression(
            self._payload(1e9),
            "benchmarks/BENCH_baseline.json") is None


class TestCli:
    def test_sim_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sim.json"
        rc = main(["sim", "--requests", "20", "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["workload"]["requests"] == 20
        assert "requests_per_mop" in payload["normalised"]

    def test_sim_check_failure_is_nonzero(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"sim_requests_per_mop": 1e12}))
        rc = main(["sim", "--requests", "20",
                   "--output", str(tmp_path / "b.json"),
                   "--check", str(baseline)])
        assert rc == 1
        assert "regression" in capsys.readouterr().err

    @pytest.mark.parametrize("requests", ["0", str(simbench.PAIRS - 1)])
    def test_sim_too_few_requests_is_usage_error(self, tmp_path, capsys,
                                                 requests):
        rc = main(["sim", "--requests", requests,
                   "--output", str(tmp_path / "b.json")])
        assert rc == 2
        assert "repro bench sim: requests must be at least" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["1.5", "-1"])
    def test_sim_bad_tolerance_is_usage_error(self, tmp_path, capsys,
                                              tolerance):
        rc = main(["sim", "--requests", "20",
                   "--output", str(tmp_path / "b.json"),
                   "--check", "benchmarks/BENCH_baseline.json",
                   "--tolerance", tolerance])
        assert rc == 2
        assert "repro bench sim: tolerance must be in [0, 1)" \
            in capsys.readouterr().err

    def test_sim_zero_layers_is_usage_error(self, tmp_path, capsys):
        rc = main(["sim", "--requests", "20", "--layers", "0",
                   "--output", str(tmp_path / "b.json")])
        assert rc == 2
        assert "num_layers must be positive" in capsys.readouterr().err
