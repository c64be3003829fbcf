"""The parallel experiment executor (``repro.exec``).

The executor's contract, pinned here: results come back in grid
order whatever order workers finish in; serial (``jobs=1``) and
process-pool runs of the same grid produce identical payloads; an
infeasible point reports its ``error`` like the serial sweep loop; a
crashing point is contained to that point.
"""

import pytest

from repro.api.spec import DeploymentSpec
from repro.errors import ConfigError
from repro.exec import PointJob, PointRunner, run_point


def make_spec(**overrides):
    """A cheap single-layer Mixtral point (seeded, deterministic)."""
    raw = {
        "model": {"name": "mixtral-8x7b", "engine": "samoyeds",
                  "num_layers": 1},
        "hardware": {"gpu": "a100"},
        "workload": {"kind": "poisson", "requests": 6, "qps": 8.0,
                     "prompt_tokens": 64, "output_tokens": 4,
                     "seed": 7},
    }
    spec = DeploymentSpec.from_dict(raw)
    return spec.with_overrides(overrides) if overrides else spec


#: The known-infeasible override: 16 expert-parallel ranks cannot
#: place Mixtral's 8 experts.
INFEASIBLE = {"hardware.parallel": "ep=16"}


class TestRunnerValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError, match="jobs"):
            PointRunner(jobs=0)

    def test_jobs_must_be_an_int(self):
        with pytest.raises(ConfigError, match="jobs"):
            PointRunner(jobs=True)

    def test_label_count_must_match(self):
        with pytest.raises(ConfigError, match="labels"):
            PointRunner().run([make_spec()], labels=["a", "b"])

    def test_empty_grid(self):
        assert PointRunner(jobs=2).run([]) == []


class TestSerialExecution:
    def test_matches_direct_deployment_run(self):
        from repro.api.deployment import Deployment

        spec = make_spec()
        [result] = PointRunner(jobs=1).run([spec], labels=["base"])
        assert result.ok and not result.crashed
        assert result.index == 0 and result.label == "base"
        assert result.report == Deployment(spec).run().to_dict()

    def test_infeasible_point_reports_error(self):
        [result] = PointRunner(jobs=1).run([make_spec(**INFEASIBLE)])
        assert not result.ok and not result.crashed
        assert result.report is None
        assert result.error

    def test_unexpected_exception_is_contained_as_crash(self,
                                                        monkeypatch,
                                                        capsys):
        from repro.api import deployment

        def boom(self):
            raise RuntimeError("simulated bug")

        monkeypatch.setattr(deployment.Deployment, "run", boom)
        result = run_point(PointJob(index=3, spec=make_spec().to_dict(),
                                    label="p3"))
        assert result.crashed and not result.ok
        assert result.index == 3 and result.label == "p3"
        assert "RuntimeError" in result.error
        assert "simulated bug" in result.error
        # The traceback the result cannot carry goes to stderr.
        err = capsys.readouterr().err
        assert "Traceback" in err and "simulated bug" in err

    def test_progress_called_per_point_in_order(self):
        seen = []
        runner = PointRunner(
            jobs=1, progress=lambda r, done, total: seen.append(
                (r.index, done, total)))
        runner.run([make_spec(), make_spec(**INFEASIBLE)])
        assert seen == [(0, 1, 2), (1, 2, 2)]


class TestPoolExecution:
    """The spawn-pool path.  One grid run exercises determinism,
    index ordering and fault containment in a single fan-out (spawn
    workers are expensive to start).  Each worker starts with an
    empty selection table and warms its own, so the grid's two
    ``auto`` points check that cold workers select the serial run's
    winners."""

    GRID = [
        {},
        {"model.engine": "auto"},
        INFEASIBLE,
        {"model.engine": "auto", "workload.qps": 4.0},
    ]

    def test_pool_matches_serial_with_warm_table(self):
        specs = [make_spec(**o) for o in self.GRID]
        labels = [f"p{i}" for i in range(len(specs))]
        serial = PointRunner(jobs=1).run(specs, labels)

        seen = []
        parallel = PointRunner(
            jobs=2,
            progress=lambda r, done, total: seen.append((done, total))
        ).run(specs, labels)

        assert [r.index for r in parallel] == [0, 1, 2, 3]
        assert [r.label for r in parallel] == labels
        # Determinism contract: payloads identical point for point.
        assert [r.report for r in parallel] == [r.report for r in serial]
        assert [r.error for r in parallel] == [r.error for r in serial]
        assert not any(r.crashed for r in parallel)
        assert parallel[2].error and parallel[2].report is None
        # Progress fired once per completion, counting up.
        assert sorted(done for done, _ in seen) == [1, 2, 3, 4]
        assert all(total == 4 for _, total in seen)

    def test_undeliverable_job_crashes_only_its_point(self):
        """A job the pool cannot even ship to a worker (here: an
        unpicklable spec payload) must fail as that point's crash
        result, not abort the sweep."""
        good = make_spec().to_dict()
        poisoned = {"unpicklable": lambda: None}
        results = PointRunner(jobs=2).run([poisoned, good, good])
        assert [r.index for r in results] == [0, 1, 2]
        assert results[0].crashed and not results[0].ok
        assert results[1].ok and results[2].ok
        assert results[1].report == results[2].report
