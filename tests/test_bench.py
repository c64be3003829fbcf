"""Benchmark harness: workloads, sweeps, reports, experiment registry."""

import pytest

from repro.bench import (
    EXPERIMENTS,
    SYNTHETIC_CASE_COUNT,
    adaptation_study,
    kernel_sweep,
    portability_sweep,
    realistic_cases,
    run_experiment,
    speedup_stats,
    synthetic_cases,
)
from repro.bench.report import fmt_speedup, render_series, render_table
from repro.workloads.gemm import DIM_GRID, scaling_cases
from repro.errors import ConfigError


class TestWorkloads:
    def test_synthetic_suite_has_238_cases(self):
        cases = synthetic_cases()
        assert len(cases) == SYNTHETIC_CASE_COUNT == 238

    def test_synthetic_cases_within_paper_range(self):
        for case in synthetic_cases():
            for dim in (case.m, case.k, case.n):
                assert 256 <= dim <= 16384
                assert dim in DIM_GRID

    def test_synthetic_suite_deterministic(self):
        assert synthetic_cases() == synthetic_cases()

    def test_realistic_cases_cover_all_models(self):
        cases = realistic_cases()
        assert len(cases) == 12          # two GEMM shapes per model
        labels = {c.label.split(":")[0] for c in cases}
        assert len(labels) == 6

    def test_realistic_shapes_match_table2(self):
        cases = realistic_cases(models=["mixtral-8x7b"])
        gate = next(c for c in cases if "gate" in c.label)
        assert (gate.m, gate.k) == (14336, 4096)

    def test_scaling_cases(self):
        cases = scaling_cases("m", fixed=4096)
        assert all(c.k == 4096 and c.n == 4096 for c in cases)
        assert [c.m for c in cases] == list(DIM_GRID)


class TestHarness:
    def test_kernel_sweep_covers_all_kernels(self, spec):
        rows = kernel_sweep(synthetic_cases(5), spec)
        assert len(rows) == 5
        for row in rows:
            assert set(row.seconds) == {"cublas", "sputnik",
                                        "cusparselt", "venom",
                                        "samoyeds"}
            assert all(t > 0 for t in row.seconds.values())

    def test_speedup_stats_fields(self, spec):
        rows = kernel_sweep(synthetic_cases(5), spec)
        stats = speedup_stats(rows)
        for base, entry in stats.items():
            assert entry["min"] <= entry["geomean"] <= entry["max"]

    def test_portability_sweep_shape(self):
        out = portability_sweep(synthetic_cases(6), ["a100"])
        assert "rtx4070s" in out and "a100" in out
        assert "samoyeds_retained" in out["a100"]

    def test_adaptation_fractions_sum_to_one(self):
        out = adaptation_study(synthetic_cases(10), "a100", "tile_down")
        total = out["improved"] + out["unchanged"] + out["degraded"]
        assert total == pytest.approx(1.0)

    def test_unknown_adaptation_rejected(self):
        with pytest.raises(Exception):
            adaptation_study(synthetic_cases(2), "a100", "overclock")


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, None]],
                            title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "OOM/NS" in text

    def test_render_series(self):
        text = render_series("s", [1, 2], {"y": [0.5, None]},
                             x_label="x")
        assert "x" in text and "y" in text

    def test_fmt_speedup(self):
        assert fmt_speedup(1.5) == "1.50x"
        assert fmt_speedup(None) == "OOM/NS"


class TestRegistry:
    def test_all_fourteen_experiments_registered(self):
        expected = {"fig02", "fig11", "fig12", "fig13", "fig14",
                    "fig15", "fig16", "tab03", "fig17", "tab04",
                    "tab05", "fig18", "tab06", "fig19"}
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment("fig99")

    def test_fast_experiment_runs(self):
        result = run_experiment("fig11")
        assert result.experiment == "fig11"
        assert result.text
        assert result.data
