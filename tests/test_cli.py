"""The ``python -m repro.bench`` command-line interface."""

import pytest

from repro.bench.cli import build_parser, main
from repro.hw.spec import list_gpus


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_kernels_defaults(self):
        args = build_parser().parse_args(["kernels"])
        assert (args.m, args.k, args.n) == (4096, 4096, 4096)
        assert args.gpu == "rtx4070s"

    def test_unknown_gpu_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kernels", "--gpu", "tpu-v9"])


class TestCommands:
    def test_kernels_command(self, capsys):
        assert main(["kernels", "--m", "512", "--k", "512",
                     "--n", "512"]) == 0
        out = capsys.readouterr().out
        assert "samoyeds" in out and "cublas" in out

    def test_roofline_command(self, capsys):
        assert main(["roofline", "--m", "1024", "--k", "1024",
                     "--n", "1024"]) == 0
        assert "roofline" in capsys.readouterr().out

    def test_roofline_roofs_follow_kernel_capabilities(self, monkeypatch):
        """Each kernel's roof comes from its capabilities, not its name:
        a renamed Samoyeds kernel gets the Samoyeds roof."""
        import repro.bench.cli as cli
        from repro.kernels import KERNELS, register_kernel
        from repro.kernels.ssmm_samoyeds import SamoyedsKernel

        roofs = {}
        place = cli.place

        def spy(cost, spec, sparse=False, zero_skip_factor=1.0):
            roofs[cost.name] = (sparse, zero_skip_factor)
            return place(cost, spec, sparse=sparse,
                         zero_skip_factor=zero_skip_factor)

        monkeypatch.setattr(cli, "place", spy)
        renamed = SamoyedsKernel()
        renamed.name = "my-ssmm"
        register_kernel(renamed)
        try:
            assert main(["roofline", "--m", "1024", "--k", "1024",
                         "--n", "1024"]) == 0
        finally:
            KERNELS.unregister("my-ssmm")
        assert roofs == {
            "cublas": (False, 1.0), "sputnik": (False, 1.0),
            "cusparselt": (True, 1.0), "venom": (True, 2.0),
            "samoyeds": (True, 2.0), "my-ssmm": (True, 2.0)}

    def test_tune_command(self, capsys):
        assert main(["tune", "--m", "1024", "--k", "1024",
                     "--n", "1024"]) == 0
        assert "best config" in capsys.readouterr().out

    def test_maxbatch_command(self, capsys):
        assert main(["maxbatch", "--seq", "1024"]) == 0
        out = capsys.readouterr().out
        assert "mixtral-8x22b" in out

    def test_maxbatch_propagates_unexpected_errors(self, monkeypatch,
                                                   capsys):
        """Regression: a bare ``except Exception`` rendered real bugs as
        OOM ``None`` cells; only capacity/config errors may do that."""
        import repro.bench.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("bug, not OOM")

        monkeypatch.setattr(cli, "max_batch_size", boom)
        with pytest.raises(RuntimeError):
            main(["maxbatch", "--seq", "1024"])

    @pytest.mark.parametrize("dim", ["m", "k", "n"])
    @pytest.mark.parametrize("command", ["kernels", "tune", "roofline"])
    def test_nonpositive_problem_dim_is_usage_error(self, capsys,
                                                    command, dim):
        for value in ("0", "-5"):
            assert main([command, f"--{dim}", value]) == 2
            err = capsys.readouterr().err
            assert f"repro bench {command}: --{dim} must be positive" \
                in err

    @pytest.mark.parametrize("seq", ["0", "-1"])
    def test_maxbatch_nonpositive_seq_is_usage_error(self, capsys, seq):
        assert main(["maxbatch", "--seq", seq]) == 2
        captured = capsys.readouterr()
        assert "repro bench maxbatch: --seq must be positive" \
            in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["serve", "run", "scale", "sim"])
    def test_negative_seed_is_usage_error(self, capsys, tmp_path,
                                          command):
        if command == "run":
            config = tmp_path / "neg_seed.yaml"
            config.write_text("model: {num_layers: 1}\n"
                              "workload: {requests: 4, seed: -3}\n")
            argv = ["run", str(config)]
        else:
            argv = [command, "--seed", "-1"]
            if command == "sim":
                argv += ["--quick",
                         "--output", str(tmp_path / "sim.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"repro bench {command}: " in err
        assert "must be >= 0" in err

    @pytest.mark.parametrize("gpu", list_gpus())
    @pytest.mark.parametrize("command", ["kernels", "tune", "roofline",
                                         "sim"])
    def test_every_gpu_runs_or_fails_in_one_line(self, capsys, tmp_path,
                                                 command, gpu):
        """No traceback on any registered device: each command exits 0,
        or 2 with one stderr line (w7900 has no sparse ALU)."""
        if command == "sim":
            argv = ["sim", "--requests", "20",
                    "--output", str(tmp_path / "sim.json")]
        else:
            argv = [command, "--m", "64", "--k", "64", "--n", "64"]
        code = main(argv + ["--gpu", gpu])
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith(f"repro bench {command}: ")
            assert len(err.splitlines()) == 1
        else:
            assert code == 0

    def test_experiments_single(self, capsys):
        assert main(["experiments", "fig11"]) == 0
        assert "Figure 11b" in capsys.readouterr().out


class TestListCommand:
    """``repro list {engines,kernels,gpus,links,models}``."""

    def _list(self, argv, capsys):
        from repro.__main__ import main as repro_main
        code = repro_main(["list", *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_list_engines_includes_auto_and_capabilities(self, capsys):
        code, out, _ = self._list(["engines"], capsys)
        assert code == 0
        for name in ("transformers", "megablocks", "vllm-ds", "pit",
                     "samoyeds", "auto"):
            assert name in out
        assert "sptc" in out and "d=0.25" in out

    def test_list_each_kind(self, capsys):
        expectations = {
            "kernels": ("cublas", "sputnik", "cusparselt", "venom",
                        "samoyeds"),
            "gpus": ("rtx4070s", "a100", "w7900"),
            "links": ("nvlink", "pcie4", "ib"),
            "models": ("mixtral-8x7b", "openmoe-34b", "CFG#1"),
            "workloads": ("poisson", "bursty", "diurnal",
                          "flash_crowd", "trace"),
        }
        for kind, names in expectations.items():
            code, out, _ = self._list([kind], capsys)
            assert code == 0, kind
            for name in names:
                assert name in out, (kind, name)

    def test_list_all_kinds_by_default(self, capsys):
        code, out, _ = self._list([], capsys)
        assert code == 0
        for header in ("engines (", "kernels (", "gpus (", "links (",
                       "models (", "workloads ("):
            assert header in out

    def test_list_workloads_shows_capability_cards(self, capsys):
        code, out, _ = self._list(["workloads"], capsys)
        assert code == 0
        assert "non-stationary" in out
        assert "trace_path" in out

    def test_unknown_kind_rejected_with_known_list(self, capsys):
        code, _, err = self._list(["widgets"], capsys)
        assert code == 2
        assert "unknown registry 'widgets'" in err
        assert "engines, kernels, gpus, links, models, workloads" in err
