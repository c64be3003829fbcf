"""Experiment execution: every sweep point through one executor.

Multi-point workloads — ``repro bench run config.yaml`` sweep grids,
``repro bench scale`` device sweeps, ``repro bench disagg`` pool
splits — are embarrassingly parallel: every point prices
deterministically from its own :class:`~repro.api.spec.DeploymentSpec`
and seed.  This package runs them, in-process or over a ``spawn``-safe
process pool:

* :class:`~repro.exec.worker.PointJob` /
  :class:`~repro.exec.worker.PointResult` — the plain-dict wire forms
  crossing the process boundary (spec dict in, ``ServeReport``
  payload out);
* :func:`~repro.exec.worker.run_point` — the point entry: rebuild
  the spec, run it, return the payload, containing any failure to
  this point;
* :class:`~repro.exec.pool.PointRunner` — the executor: deterministic
  index-ordered results, per-point fault containment, a progress
  callback per completed point; ``jobs=1`` runs in-process.

Determinism contract: serial and parallel runs of the same grid
produce byte-identical payloads — each process memoises its own
``engine="auto"`` winners, and selection is deterministic, so a
process only changes *when* a winner is computed, never *which*
winner wins.  The CLI exposes the executor as ``--jobs N`` on ``repro
bench run``, ``scale`` and ``disagg``; ``repro bench sweepbench``
measures the speedup into ``BENCH_sweep.json``.
"""

from repro.exec.pool import PointRunner, ProgressFn
from repro.exec.worker import PointJob, PointResult, run_point

__all__ = [
    "PointJob",
    "PointResult",
    "PointRunner",
    "ProgressFn",
    "run_point",
]
