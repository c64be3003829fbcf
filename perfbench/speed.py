"""Host time rescaled to a reference host speed.

On a shared host, other tenants slow the process down by up to 2x, in
phases from a fraction of a second to minutes.  Process CPU time slows
down with it (the contention is for the core's caches and execution
units, not for the scheduler), so neither wall nor CPU time of one call
repeats from one invocation to the next.

:func:`normalised` runs a fixed slice of work, a :class:`Probe`, every
:data:`PROBE_EVERY_S` seconds while the measured call runs (``SIGALRM``
handlers run between the call's bytecodes).  Each stretch of the call
between two probes is rescaled by how much slower than its reference
time the two probes around it ran.  The sum is the call's time at the
reference speed, in seconds; the probes' own time is left out of it.

Contention slows interpreter work and numpy work by different factors,
so the probe does the measured call's kind of work: :data:`INTERPRETER`
for the serving simulator and for imports, :data:`NUMPY` for the paper
experiments, whose time is mostly array arithmetic.
"""

from __future__ import annotations

import heapq
import signal
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

now = time.perf_counter

#: Host seconds of the call between two probes.
PROBE_EVERY_S = 0.02


@dataclass(frozen=True)
class Probe:
    """A fixed slice of work that allocates no object the garbage
    collector tracks, so it never starts a collection; and the seconds it
    takes at the reference speed: about its fastest time on a 2-vCPU
    x86_64 VM (Intel Xeon) under CPython 3.11 and numpy 2 with one BLAS
    thread."""
    work: Callable[[], None]
    reference_s: float


class _Cell:
    __slots__ = ("value", "next", "key")


_CELLS = [_Cell() for _ in range(256)]
for _i, _cell in enumerate(_CELLS):
    _cell.value, _cell.key = 0.0, (_i * 7919) % 1009
    _cell.next = _CELLS[(_i * 97 + 1) % 256]
_ITEMS = [((i * 7919) % 1009, i) for i in range(512)]
_HEAP = sorted(_ITEMS[:128])
_TABLE = dict.fromkeys(range(1024), 0.0)


def _step(cell: _Cell, x: int) -> _Cell:
    cell.value = cell.value * 0.5 + x
    return cell.next


def _interpreter_work() -> None:
    """The simulator's kind of work in miniature: function calls,
    attribute reads and writes, heap operations on tuples and dict
    updates.  (A probe of only list and dict lookups followed the
    simulator's slowdowns less closely.)"""
    cell, heap, items, table = _CELLS[0], _HEAP, _ITEMS, _TABLE
    for i in range(2000):
        cell = _step(cell, i)
        item = heapq.heappushpop(heap, items[i & 511])
        table[cell.key] += item[0]


_MATRIX = np.random.default_rng(0).standard_normal((96, 96))


def _numpy_work() -> None:
    """Small matrix products and element-wise functions."""
    x = _MATRIX
    for _ in range(4):
        x = np.tanh(x @ _MATRIX * 0.01)


INTERPRETER = Probe(_interpreter_work, reference_s=0.0005)
NUMPY = Probe(_numpy_work, reference_s=0.00018)

#: The probe and marks (start, end) of the call being measured, or None.
_active: tuple[Probe, list[tuple[float, float]]] | None = None


def _take(probe: Probe, marks: list[tuple[float, float]]) -> None:
    start = now()
    probe.work()
    marks.append((start, now()))


def _on_alarm(signum, frame) -> None:
    # A late alarm after the call ended finds nothing active and re-arms
    # nothing.
    if _active is not None:
        _take(*_active)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)


def normalised(fn, probe: Probe) -> tuple[float, float, object]:
    """Call ``fn`` under ``probe``: (reference seconds, host seconds
    without the probes, result)."""
    global _active
    marks: list[tuple[float, float]] = []
    # Installed for good: a pending alarm never meets the default action,
    # which would end the process.
    signal.signal(signal.SIGALRM, _on_alarm)
    _take(probe, marks)
    _active = probe, marks
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
    try:
        result = fn()
    finally:
        _active = None
        signal.setitimer(signal.ITIMER_REAL, 0)
    _take(probe, marks)
    reference = host = 0.0
    for (a0, a1), (b0, b1) in zip(marks, marks[1:]):
        work = b0 - a1
        host += work
        reference += work * 2 * probe.reference_s / ((a1 - a0) + (b1 - b0))
    return reference, host, result
