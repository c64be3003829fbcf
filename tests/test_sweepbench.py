"""``repro bench sweepbench`` and the host-metadata block.

The sweep benchmark's payload shape, its determinism gate, and the
rule both benchmark gates share: the ``host`` block is informational
— recorded for cross-machine trajectory comparisons, never read by
``--check`` (except the cpu-count escape hatch that skips the
*speedup* gate on hosts that physically cannot show one).
"""

import pytest

from repro.bench import simbench, sweepbench
from repro.bench.cli import main
from repro.errors import ConfigError
from repro.utils.host import host_metadata


def baseline(tmp_path, **payload):
    path = tmp_path / "baseline.json"
    import json
    path.write_text(json.dumps(payload))
    return path


def sweep_payload(cpu_count=8, speedup=2.0, identical=True):
    """A synthetic sweepbench payload (shape-compatible with
    run_benchmark's) for exercising the gate without a real run."""
    return {
        "version": sweepbench.SWEEP_BENCH_VERSION,
        "host": {**host_metadata(), "cpu_count": cpu_count,
                 "platform": "weird-os-0.0", "machine": "vax"},
        "serial": {"wall_s": 10.0, "points": 32, "errors": 0},
        "parallel": {"wall_s": 10.0 / speedup if speedup else 10.0,
                     "jobs": 4, "points": 32, "errors": 0},
        "speedup": {"wall_clock": speedup},
        "payloads_identical": identical,
    }


class TestHostMetadata:
    def test_shape(self):
        host = host_metadata()
        assert set(host) == {"cpu_count", "python", "implementation",
                             "platform", "machine"}
        assert isinstance(host["cpu_count"], int)
        assert host["cpu_count"] >= 1


class TestRunBenchmark:
    def test_payload_shape_and_determinism(self):
        payload = sweepbench.run_benchmark(jobs=2, requests=8)
        assert payload["version"] == sweepbench.SWEEP_BENCH_VERSION
        assert payload["grid"]["points"] == 32
        assert payload["grid"]["requests_per_point"] == 8
        assert payload["serial"]["points"] == 32
        assert payload["parallel"]["points"] == 32
        assert payload["parallel"]["jobs"] == 2
        assert payload["serial"]["errors"] == 0
        assert payload["parallel"]["errors"] == 0
        assert payload["serial"]["wall_s"] > 0
        assert payload["parallel"]["wall_s"] > 0
        assert payload["speedup"]["wall_clock"] > 0
        # The executor's core contract, measured on a real grid.
        assert payload["payloads_identical"] is True
        # The host block rides along for cross-machine comparisons.
        assert set(payload["host"]) == set(host_metadata())

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ConfigError):
            sweepbench.run_benchmark(jobs=0, requests=8)
        with pytest.raises(ConfigError):
            sweepbench.sweep_points(requests=0)


class TestCheckRegression:
    def test_within_tolerance_passes(self, tmp_path):
        path = baseline(tmp_path, sweep_speedup=2.0)
        assert sweepbench.check_regression(
            sweep_payload(speedup=1.9), path) is None

    def test_below_floor_fails(self, tmp_path):
        path = baseline(tmp_path, sweep_speedup=2.0)
        failure = sweepbench.check_regression(
            sweep_payload(speedup=1.0), path, tolerance=0.30)
        assert failure and "1.40x" in failure

    def test_host_block_values_are_ignored(self, tmp_path):
        """Odd platform strings and machine names must not affect the
        verdict — only cpu_count's < 2 escape hatch is read."""
        path = baseline(tmp_path, sweep_speedup=2.0)
        payload = sweep_payload(speedup=1.9)
        payload["host"].update(platform="???", machine="",
                               python="0.0.0")
        assert sweepbench.check_regression(payload, path) is None

    def test_single_cpu_host_skips_speedup_gate(self, tmp_path):
        path = baseline(tmp_path, sweep_speedup=2.0)
        assert sweepbench.check_regression(
            sweep_payload(cpu_count=1, speedup=0.8), path) is None

    def test_determinism_gated_even_on_single_cpu(self, tmp_path):
        path = baseline(tmp_path, sweep_speedup=2.0)
        failure = sweepbench.check_regression(
            sweep_payload(cpu_count=1, speedup=0.8, identical=False),
            path)
        assert failure and "determinism" in failure

    @pytest.mark.parametrize("tolerance", [1.5, 1.0, -1.0])
    def test_tolerance_outside_unit_interval_raises(self, tmp_path,
                                                    tolerance):
        path = baseline(tmp_path, sweep_speedup=2.0)
        with pytest.raises(ConfigError, match="tolerance"):
            sweepbench.check_regression(sweep_payload(), path,
                                        tolerance=tolerance)

    def test_bad_baseline_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep_speedup"):
            sweepbench.check_regression(
                sweep_payload(), baseline(tmp_path, other=1))
        with pytest.raises(ConfigError, match="cannot read"):
            sweepbench.check_regression(
                sweep_payload(), tmp_path / "missing.json")


class TestCli:
    def test_zero_requests_is_usage_error(self, tmp_path, capsys):
        rc = main(["sweepbench", "--requests", "0", "--jobs", "1",
                   "--output", str(tmp_path / "sweep.json")])
        assert rc == 2
        assert "repro bench sweepbench: requests per point must be " \
            "positive" in capsys.readouterr().err

    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys):
        rc = main(["sweepbench", "--requests", "2", "--jobs", "1",
                   "--output", str(tmp_path / "sweep.json"),
                   "--check", str(baseline(tmp_path, sweep_speedup=2.0)),
                   "--tolerance", "1.5"])
        assert rc == 2
        assert "repro bench sweepbench: tolerance must be in [0, 1)" \
            in capsys.readouterr().err


class TestSimbenchHostBlock:
    def test_bench_sim_payload_records_host(self):
        payload = simbench.run_benchmark(requests=40)
        assert set(payload["host"]) == set(host_metadata())

    def test_check_ignores_host_block(self, tmp_path):
        """simbench's gate reads only the calibration-normalised
        number."""
        payload = {"host": {"cpu_count": 1, "platform": "???"},
                   "normalised": {"requests_per_mop": 1200.0}}
        path = baseline(tmp_path, sim_requests_per_mop=1000.0)
        assert simbench.check_regression(payload, path) is None
