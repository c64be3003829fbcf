"""Spawn-safe point entry of the sweep executor.

A sweep point crosses the process boundary as a :class:`PointJob`
carrying the :class:`~repro.api.spec.DeploymentSpec` in its plain-dict
form (specs round-trip exactly through ``to_dict``/``from_dict``, so
the worker rebuilds a value-identical deployment) and comes back as a
:class:`PointResult` carrying the ``ServeReport.to_dict()`` payload —
plain types end to end, picklable under any start method, importable
by a ``spawn`` child without side effects beyond the normal
:mod:`repro` import.  Serial sweeps call the same entry in-process.

Failure semantics are graded by failure class:

* a :class:`~repro.errors.ReproError` (infeasible point — OOM, an
  unplaceable expert grid, a config the engine rejects) becomes an
  ``error`` result, the ``"error"`` entry sweep payloads record;
* any *other* exception marks the result ``crashed`` — the point is
  lost, every other point is unaffected.  Its traceback goes to
  stderr, since the result keeps only the exception's type and
  message.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

from repro.errors import ReproError


@dataclass(frozen=True)
class PointJob:
    """One sweep point, in wire form.

    Attributes:
        index: Position of the point in the sweep grid; results are
            reassembled by this key, never by completion order.
        spec: ``DeploymentSpec.to_dict()`` payload.
        label: Human-readable point label for progress lines.
    """

    index: int
    spec: dict
    label: str = ""


@dataclass(frozen=True)
class PointResult:
    """Outcome of one sweep point.

    Exactly one of ``report`` / ``error`` is set.  ``crashed``
    distinguishes a contained non-:class:`~repro.errors.ReproError`
    failure (a bug, not an infeasible point) from the modelled
    ``error`` case.
    """

    index: int
    label: str = ""
    report: "dict | None" = None
    error: "str | None" = None
    crashed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def run_point(job: PointJob) -> PointResult:
    """Execute one sweep point in this process (the pool's entry).

    Rebuilds the spec, runs the deployment and returns the report
    payload.
    """
    from repro.api.deployment import Deployment

    try:
        report = Deployment.from_dict(job.spec).run()
    except ReproError as exc:
        return PointResult(index=job.index, label=job.label,
                           error=str(exc))
    except Exception as exc:  # crash containment: fail only this point
        traceback.print_exc()
        return PointResult(
            index=job.index, label=job.label, crashed=True,
            error=f"worker crashed: {type(exc).__name__}: {exc}")
    return PointResult(index=job.index, label=job.label,
                       report=report.to_dict())
