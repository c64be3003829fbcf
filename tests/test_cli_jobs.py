"""``--jobs N`` on the bench CLI: golden serial/parallel equivalence.

The executor's user-facing contract: ``repro bench run`` and ``repro
bench scale`` emit **byte-identical** JSON whether the points run
serially or fanned over worker processes — including under the
runtime sim-sanitizer — and an infeasible sweep point keeps its grid
position as an ``error`` entry either way.  A crashing point is
contained to its own entry in ``run``, ``scale`` and ``disagg``, and
the command exits 1 after writing the payload.
"""

import json
import os

import pytest

from repro.bench.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..",
                          "examples", "configs")
CLUSTER_SWEEP = os.path.join(CONFIG_DIR, "cluster_sweep.yaml")

SCALE_ARGS = ["scale", "--devices", "1,2", "--requests", "8",
              "--qps", "8", "--prompt-tokens", "64",
              "--output-tokens", "4", "--layers", "1", "--gpu", "a100"]


def run_cli(capsys, argv):
    """Run the CLI, returning (exit code, stdout)."""
    code = main(argv)
    return code, capsys.readouterr().out


class TestJobsValidation:
    def test_run_rejects_nonpositive_jobs(self, capsys):
        assert main(["run", CLUSTER_SWEEP, "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_scale_rejects_nonpositive_jobs(self, capsys):
        assert main(SCALE_ARGS + ["--jobs", "-1"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestRunGolden:
    def test_cluster_sweep_parallel_byte_identical(self, capsys):
        code, serial = run_cli(capsys, ["run", CLUSTER_SWEEP])
        assert code == 0
        code, parallel = run_cli(capsys,
                                 ["run", CLUSTER_SWEEP, "--jobs", "2"])
        assert code == 0
        assert parallel == serial

    def test_cluster_sweep_parallel_identical_under_sanitizer(
            self, capsys, monkeypatch):
        """The sanitizer's runtime checks ride along into spawn
        workers via the environment; the payload must not change."""
        code, baseline = run_cli(capsys, ["run", CLUSTER_SWEEP])
        assert code == 0
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        code, sanitized = run_cli(capsys,
                                  ["run", CLUSTER_SWEEP, "--jobs", "2"])
        assert code == 0
        assert sanitized == baseline


class TestInfeasiblePointPosition:
    @pytest.fixture
    def sweep_config(self, tmp_path):
        """Two-point sweep whose second point (ep=16 on an 8-expert
        model) is infeasible."""
        path = tmp_path / "sweep.yaml"
        path.write_text(json.dumps({
            "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                      "num_layers": 1},
            "hardware": {"gpu": "a100"},
            "workload": {"kind": "poisson", "requests": 6, "qps": 8.0,
                         "prompt_tokens": 64, "output_tokens": 4,
                         "seed": 7},
            "sweep": {"hardware.parallel": ["ep=1", "ep=16"]},
        }))
        return str(path)

    def check_payload(self, out):
        payload = json.loads(out)
        sweep = payload["sweep"]
        assert len(sweep) == 2
        assert sweep[0]["overrides"] == {"hardware.parallel": "ep=1"}
        assert "report" in sweep[0] and "error" not in sweep[0]
        # The infeasible point keeps its grid position and carries
        # the error string instead of a report.
        assert sweep[1]["overrides"] == {"hardware.parallel": "ep=16"}
        assert "error" in sweep[1] and "report" not in sweep[1]
        return out

    def test_serial_and_parallel_keep_position(self, capsys,
                                               sweep_config):
        code, serial = run_cli(capsys, ["run", sweep_config])
        assert code == 0
        self.check_payload(serial)
        code, parallel = run_cli(capsys,
                                 ["run", sweep_config, "--jobs", "2"])
        assert code == 0
        assert self.check_payload(parallel) == serial


class TestScaleGolden:
    def test_scale_parallel_byte_identical(self, capsys):
        code, serial = run_cli(capsys, SCALE_ARGS)
        assert code == 0
        code, parallel = run_cli(capsys, SCALE_ARGS + ["--jobs", "2"])
        assert code == 0
        assert parallel == serial
        # Sanity: the payload really contains both series.
        payload = json.loads(serial)
        assert [p["devices"] for p in payload["strong"]] == [1, 2]
        assert [p["devices"] for p in payload["weak"]] == [1, 2]


SMALL_DISAGG = {
    "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
              "num_layers": 1},
    "hardware": {"gpu": "h100"},
    "serving": {"page_size": 16, "pools": [
        {"name": "pf", "role": "prefill"},
        {"name": "dc", "role": "decode", "gpu": "w7900",
         "engine": "vllm-ds"}]},
    "workload": {"kind": "poisson", "requests": 6, "qps": 120.0,
                 "prompt_tokens": 64, "output_tokens": 4, "seed": 3},
}

CRASH = "worker crashed: RuntimeError: simulated bug"


class TestCrashedPoint:
    """A point that raises a non-``ReproError`` is contained to its
    own payload entry in a serial (``--jobs 1``, in-process) sweep;
    the other points still report and the command exits 1."""

    @pytest.fixture
    def crash_when(self, monkeypatch):
        """Make ``Deployment.run`` raise for specs matching a
        predicate."""
        from repro.api import deployment

        original = deployment.Deployment.run

        def install(predicate):
            def run(self, *args, **kwargs):
                if predicate(self.spec):
                    raise RuntimeError("simulated bug")
                return original(self, *args, **kwargs)

            monkeypatch.setattr(deployment.Deployment, "run", run)

        return install

    def test_run_sweep_contains_crash(self, capsys, tmp_path, crash_when):
        path = tmp_path / "sweep.yaml"
        path.write_text(json.dumps({
            "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                      "num_layers": 1},
            "hardware": {"gpu": "a100"},
            "workload": {"kind": "poisson", "requests": 6, "qps": 8.0,
                         "prompt_tokens": 64, "output_tokens": 4,
                         "seed": 7},
            "sweep": {"workload.qps": [4.0, 8.0]},
        }))
        crash_when(lambda spec: spec.workload.qps == 8.0)
        assert main(["run", str(path), "--jobs", "1"]) == 1
        captured = capsys.readouterr()
        sweep = json.loads(captured.out)["sweep"]
        assert "report" in sweep[0] and "error" not in sweep[0]
        assert sweep[1] == {"overrides": {"workload.qps": 8.0},
                            "error": CRASH}
        # The serial sweep reports each point as the executor's
        # progress line, the crash included.
        assert "# [1/2] workload.qps=4.0: ok" in captured.err
        assert f"# [2/2] workload.qps=8.0: {CRASH}" in captured.err

    def test_scale_contains_crash(self, capsys, crash_when):
        # The weak-scaling point at 2 devices doubles the requests.
        crash_when(lambda spec: spec.hardware.parallel.ep == 2
                   and spec.workload.requests == 16)
        code, out = run_cli(capsys, SCALE_ARGS + ["--jobs", "1"])
        assert code == 1
        payload = json.loads(out)
        assert all("qps_sustained" in p for p in payload["strong"])
        assert "qps_sustained" in payload["weak"][0]
        assert payload["weak"][1] == {"devices": 2, "error": CRASH}

    def test_disagg_contains_crash(self, capsys, tmp_path, crash_when):
        path = tmp_path / "disagg.yaml"
        path.write_text(json.dumps(SMALL_DISAGG))
        crash_when(lambda spec: not spec.serving.pools)   # colocated
        code, out = run_cli(capsys, ["disagg", str(path), "--splits",
                                     "1:1", "--jobs", "1"])
        assert code == 1
        points = json.loads(out)["points"]
        assert points[0] == {"split": "colocated", "error": CRASH}
        assert points[1]["split"] == "1:1" and "report" in points[1]
