"""The ``repro bench serve`` CLI subcommand and top-level dispatcher."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.bench.cli import build_parser, main


SERVE_ARGS = ["serve", "--engines", "samoyeds,vllm", "--workload", "poisson",
              "--requests", "10", "--qps", "4", "--prompt-tokens", "128",
              "--output-tokens", "6", "--layers", "4"]


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workload == "poisson"
        assert args.engines == "samoyeds,vllm-ds"
        assert args.batcher == "continuous"

    def test_serve_rejects_unknown_trace(self, capsys):
        assert main(["serve", "--workload", "weibull"]) == 2
        assert "workload.kind" in capsys.readouterr().err
        # The retired --trace flag prefix-matches --trace-path and
        # fails loudly instead of silently serving poisson.
        assert main(["serve", "--trace", "bursty"]) == 2
        assert ("workload.trace_path: only applies to file-replay kinds"
                in capsys.readouterr().err)

    def test_serve_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--model", "gpt-5"])


class TestServeCommand:
    def test_emits_json_report(self, capsys):
        assert main(SERVE_ARGS) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["trace"] == "poisson"
        assert [e["engine"] for e in payload["engines"]] == [
            "samoyeds", "vllm-ds"]        # vllm alias resolves
        for entry in payload["engines"]:
            assert entry["completed"] == 10
            assert entry["ttft_s"]["p50"] > 0
        assert "ttft p50 ms" in captured.err   # summary table on stderr

    def test_deterministic_given_seed(self, capsys):
        assert main(SERVE_ARGS + ["--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert main(SERVE_ARGS + ["--seed", "42"]) == 0
        assert capsys.readouterr().out == first

    def test_bursty_static(self, capsys):
        assert main(SERVE_ARGS[:1] + [
            "--engines", "samoyeds", "--workload", "bursty",
            "--batcher", "static", "--batch-size", "4",
            "--requests", "8", "--output-tokens", "4",
            "--layers", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["batcher"] == "static"
        assert payload["engines"][0]["completed"] == 8

    def test_infeasible_engine_reported_not_fatal(self, capsys):
        assert main(["serve", "--model", "mixtral-8x22b",
                     "--engines", "vllm-ds,samoyeds",
                     "--requests", "6", "--output-tokens", "4",
                     "--layers", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_engine = {e["engine"]: e for e in payload["engines"]}
        assert "error" in by_engine["vllm-ds"]      # Table-3 OOM
        assert by_engine["samoyeds"]["completed"] == 6

    def test_chunked_paged_flags(self, capsys):
        assert main(["serve", "--engines", "samoyeds",
                     "--batcher", "chunked", "--page-size", "16",
                     "--token-budget", "128", "--eos-sampling",
                     "--requests", "8", "--qps", "4",
                     "--prompt-tokens", "256", "--output-tokens", "4",
                     "--layers", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["batcher"] == "chunked"
        assert payload["page_size"] == 16
        assert payload["eos_sampling"] is True
        entry = payload["engines"][0]
        assert entry["completed"] == 8
        assert "preemptions" in entry
        assert "peak_reserved_bytes" in entry

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(SERVE_ARGS + ["--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["requests"] == 10
        assert capsys.readouterr().out == ""

    def test_workload_flag_overrides_trace(self, capsys):
        assert main(["serve", "--engines", "samoyeds",
                     "--workload", "flash_crowd",
                     "--requests", "8", "--qps", "8",
                     "--prompt-tokens", "128", "--output-tokens", "4",
                     "--layers", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == "flash_crowd"
        assert payload["engines"][0]["completed"] == 8

    def test_unknown_workload_is_usage_error(self, capsys):
        assert main(["serve", "--workload", "weibull"]) == 2
        assert "workload.kind" in capsys.readouterr().err

    def test_csv_workload_replays_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("arrival_s,prompt_tokens,output_tokens\n"
                         + "".join(f"{0.1 * i},128,4\n"
                                   for i in range(6)))
        assert main(["serve", "--engines", "samoyeds",
                     "--workload", "trace",
                     "--trace-path", str(trace),
                     "--layers", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == "trace"
        assert payload["engines"][0]["completed"] == 6

    def test_scheduler_flag_accepted(self, capsys):
        assert main(SERVE_ARGS + ["--scheduler",
                                  "priority_slack"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engines"][0]["completed"] == 10


class TestDispatcher:
    def test_repro_bench_forwards(self, capsys):
        assert repro_main(["bench", "maxbatch", "--seq", "512"]) == 0
        assert "mixtral" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert repro_main(["frobnicate"]) == 2

    def test_no_args_usage(self, capsys):
        assert repro_main([]) == 2
        assert "usage" in capsys.readouterr().out


class TestParallelFlag:
    def test_parallel_serve_reports_cluster(self, capsys):
        assert main(SERVE_ARGS + ["--engines", "samoyeds",
                                  "--parallel", "ep=4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parallel"]["ep"] == 4
        assert payload["link"] == "nvlink"
        entry = payload["engines"][0]
        assert entry["cluster"]["experts_per_device"] == [2, 2, 2, 2]

    def test_single_gpu_payload_has_no_parallel_section(self, capsys):
        assert main(SERVE_ARGS) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "parallel" not in payload
        for entry in payload["engines"]:
            assert "cluster" not in entry

    def test_malformed_parallel_is_usage_error(self, capsys):
        assert main(SERVE_ARGS + ["--parallel", "ep=0"]) == 2
        assert "bad --parallel" in capsys.readouterr().err
        assert main(SERVE_ARGS + ["--parallel", "pp=4"]) == 2

    def test_dp_is_usage_error(self, capsys):
        assert main(SERVE_ARGS + ["--parallel", "dp=2"]) == 2
        assert "dp>1" in capsys.readouterr().err

    def test_horizon_flag_yields_empty_report(self, capsys):
        assert main(SERVE_ARGS + ["--engines", "samoyeds",
                                  "--horizon", "1e-9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engines"][0]["completed"] == 0


class TestScaleCommand:
    SCALE_ARGS = ["scale", "--devices", "1,2", "--requests", "8",
                  "--qps", "40", "--prompt-tokens", "128",
                  "--output-tokens", "4", "--layers", "2"]

    def test_emits_strong_and_weak_series(self, capsys):
        assert main(self.SCALE_ARGS) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert [p["devices"] for p in payload["strong"]] == [1, 2]
        assert [p["devices"] for p in payload["weak"]] == [1, 2]
        point = payload["strong"][1]
        assert point["qps_sustained"] > 0
        assert point["comm_fraction"] > 0
        assert "ttft_s" in point and "tpot_s" in point
        assert "strong qps" in captured.err    # table on stderr

    def test_scaling_monotone_under_overload(self, capsys):
        assert main(self.SCALE_ARGS) == 0
        payload = json.loads(capsys.readouterr().out)
        qps = [p["qps_sustained"] for p in payload["strong"]]
        assert qps[1] > qps[0]

    def test_bad_devices_rejected(self, capsys):
        assert main(["scale", "--devices", "1,two"]) == 2
        assert main(["scale", "--devices", "0"]) == 2

    def test_infeasible_point_recorded_not_fatal(self, capsys):
        # mixtral-8x7b has 8 experts: ep=16 cannot place them.
        assert main(self.SCALE_ARGS[:1]
                    + ["--devices", "1,16", "--requests", "4",
                       "--qps", "40", "--layers", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "error" in payload["strong"][1]
        assert payload["strong"][0]["qps_sustained"] > 0

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "scale.json"
        assert main(self.SCALE_ARGS + ["--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "ep"
        assert capsys.readouterr().out == ""


class TestEngineDedupe:
    def test_alias_collision_runs_engine_once(self, capsys):
        # vllm resolves to vllm-ds: listing both (or repeating one)
        # must not run and report the same engine twice.
        assert main(["serve", "--engines", "vllm,vllm-ds,samoyeds,vllm",
                     "--requests", "6", "--qps", "4",
                     "--prompt-tokens", "128", "--output-tokens", "4",
                     "--layers", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [e["engine"] for e in payload["engines"]]
        assert names == ["vllm-ds", "samoyeds"]   # order preserved


class TestRunCommand:
    CONFIG = """
model: {name: mixtral-8x7b, engine: samoyeds, num_layers: 2}
workload: {requests: 6, qps: 8.0, prompt_tokens: 128, output_tokens: 4}
"""

    def _write(self, tmp_path, text, name="cfg.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_single_run_payload_is_the_report(self, tmp_path, capsys):
        path = self._write(tmp_path, self.CONFIG)
        assert main(["run", path]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["engine"] == "samoyeds"
        assert payload["completed"] == 6
        assert "ttft p50 ms" in captured.err      # table on stderr

    def test_single_run_matches_legacy_simulate(self, tmp_path, capsys):
        """The single-run payload equals a directly built engine's
        report."""
        from repro.context import ExecutionContext
        from repro.serve import ServingEngine, poisson_trace
        from repro.utils.rng import DEFAULT_SEED
        path = self._write(tmp_path, self.CONFIG)
        assert main(["run", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        ctx = ExecutionContext.create("mixtral-8x7b", "samoyeds",
                                      "rtx4070s")
        direct = ServingEngine(ctx=ctx, num_layers=2,
                               seed=DEFAULT_SEED).run(
            poisson_trace(6, 8.0, prompt_tokens=128, output_tokens=4,
                          seed=DEFAULT_SEED))
        assert payload == json.loads(json.dumps(direct.to_dict()))

    def test_sweep_run_expands_grid(self, tmp_path, capsys):
        path = self._write(tmp_path, self.CONFIG + """
sweep:
  hardware.parallel: [ep=1, ep=2]
""")
        assert main(["run", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["overrides"] for e in payload["sweep"]] == [
            {"hardware.parallel": "ep=1"},
            {"hardware.parallel": "ep=2"}]
        for entry in payload["sweep"]:
            assert entry["report"]["completed"] == 6
        assert payload["base"]["model"]["name"] == "mixtral-8x7b"

    def test_infeasible_sweep_point_recorded_not_fatal(
            self, tmp_path, capsys):
        # mixtral-8x7b has 8 experts; ep=16 cannot place them.
        path = self._write(tmp_path, self.CONFIG + """
sweep:
  hardware.parallel: [ep=1, ep=16]
""")
        assert main(["run", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "report" in payload["sweep"][0]
        assert "error" in payload["sweep"][1]

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        path = self._write(tmp_path, "serving: {page_size: 0}\n")
        assert main(["run", path]) == 2
        assert "serving.page_size" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["run", "/nonexistent/cfg.yaml"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_output_file(self, tmp_path, capsys):
        path = self._write(tmp_path, self.CONFIG)
        out = tmp_path / "report.json"
        assert main(["run", path, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["completed"] == 6
        assert capsys.readouterr().out == ""

    def test_json_config(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            json.dumps({"model": {"num_layers": 2},
                        "workload": {"requests": 4, "qps": 8.0,
                                     "prompt_tokens": 64,
                                     "output_tokens": 4}}),
            name="cfg.json")
        assert main(["run", path]) == 0
        assert json.loads(capsys.readouterr().out)["completed"] == 4
