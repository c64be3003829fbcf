"""Data-packing analysis (§4.4, Figure 10).

Three packing decisions shape the Samoyeds kernel's memory behaviour:

* **matrix A** — packed in format order in global memory, 128-bit
  transactions to shared memory, ``ldmatrix`` (permuted, conflict-free)
  to registers;
* **matrix B** — stored *transposed* so the token-sparse columns become
  contiguous rows that can be skipped wholesale, preserving coalescing;
* **metadata** — re-laid-out per Figure 10 so each thread's sixteen 2-bit
  values land in one aligned 32-bit word (see
  :mod:`repro.formats.metadata_packing` for the exact permutation).

The functions here convert those decisions into the transaction counts and
bank-conflict multipliers the kernel cost model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.formats.metadata_packing import (
    TILE,
    metadata_load_transactions,
)
from repro.hw.memory import AccessPattern, dram_bytes
from repro.hw.spec import GPUSpec


@dataclass(frozen=True)
class PackingPlan:
    """Which packing optimisations are enabled."""

    a_swizzled: bool = True         # permuted smem layout for A
    b_transposed: bool = True       # B stored/accessed transposed
    metadata_packed: bool = True    # Figure 10 layout


def a_smem_conflict_ways(plan: PackingPlan) -> int:
    """Bank-conflict multiplier for A-fragment loads."""
    return 1 if plan.a_swizzled else 8


def b_tile_dram_bytes(kb: int, nb: int, plan: PackingPlan,
                      spec: GPUSpec, selected_fraction: float = 1.0
                      ) -> float:
    """DRAM bytes to stage one B tile.

    Transposed B keeps each needed token row contiguous, so loads stay
    coalesced regardless of which columns the SEL array picks.  The
    untransposed layout reads ``kb``-strided scraps of each selected
    column: per-element sector rounding.
    """
    rows = max(1, int(round(kb * 1.0)))
    if plan.b_transposed:
        return dram_bytes(
            AccessPattern(rows=max(1, int(nb * selected_fraction)),
                          row_bytes=rows * 2), spec)
    # Column-major pulls: nb columns, each touching `rows` separate
    # sectors of 2 useful bytes.
    per_element_sector_bytes = spec.dram_transaction_bytes
    return nb * selected_fraction * rows * per_element_sector_bytes


def metadata_tile_bytes(mb: int, kb: int, subrow_density: float,
                        plan: PackingPlan) -> float:
    """Bytes of metadata traffic for one block iteration.

    The metadata covers ``mb * subrow_density`` stored sub-rows by
    ``kb / 2`` kept elements at 2 bits each; the unpacked layout touches
    4x the words (Figure 10's scatter factor).
    """
    stored_rows = max(1, int(mb * subrow_density))
    bits = stored_rows * (kb // 2) * 2
    tiles = max(1, bits // (TILE * TILE * 2))
    words = metadata_load_transactions(tiles, packed=plan.metadata_packed)
    return words * 4.0
