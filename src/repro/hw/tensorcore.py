"""Tensor-core instruction shapes and legality checks.

The Samoyeds kernel issues ``mma.sp`` (sparse MMA) PTX instructions; the
baselines issue dense ``mma``.  Tiling configurations must decompose warp
tiles into an integer number of these instruction shapes — this module owns
those shape tables and the per-instruction cost accounting.

An ``m16n8k32`` sparse MMA multiplies a 16x32 *logical* A fragment (stored
2:4-compressed as 16x16 plus 2-bit metadata) with a 32x8 B fragment into a
16x8 accumulator.  Its *effective* FLOP count is ``2*m*n*k`` because the
zeros are skipped by hardware, which is exactly the 2x speedup of SpTCs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareModelError, TilingError
from repro.hw.spec import GPUSpec


@dataclass(frozen=True)
class MmaShape:
    """One tensor-core instruction shape (per warp).

    Attributes:
        m, n, k: Logical GEMM dimensions covered by one instruction.
        sparse: True for ``mma.sp`` (A operand 2:4 compressed).
        dtype_bytes: Operand element size (2 for fp16/bf16).
    """

    m: int
    n: int
    k: int
    sparse: bool
    dtype_bytes: int = 2

    @property
    def name(self) -> str:
        kind = "mma.sp" if self.sparse else "mma"
        return f"{kind}.m{self.m}n{self.n}k{self.k}"

    @property
    def flops(self) -> int:
        """Effective FLOPs of one instruction (2 per multiply-accumulate)."""
        return 2 * self.m * self.n * self.k

    @property
    def a_fragment_bytes(self) -> int:
        """Bytes of the A fragment actually stored (compressed if sparse)."""
        k_stored = self.k // 2 if self.sparse else self.k
        return self.m * k_stored * self.dtype_bytes

    @property
    def metadata_bytes(self) -> int:
        """2-bit metadata per stored A element (sparse only)."""
        if not self.sparse:
            return 0
        return self.m * (self.k // 2) * 2 // 8


#: Sparse MMA shapes available since PTX ISA 7.0 (sm_80+), fp16/bf16.
MMA_SP_SHAPES: tuple[MmaShape, ...] = (
    MmaShape(16, 8, 32, sparse=True),
    MmaShape(16, 8, 16, sparse=True),
)

#: Dense MMA shapes used by the baseline kernels.
MMA_DENSE_SHAPES: tuple[MmaShape, ...] = (
    MmaShape(16, 8, 16, sparse=False),
    MmaShape(16, 8, 8, sparse=False),
)

#: The shape the Samoyeds paper centres its packing design on (§4.4).
SAMOYEDS_MMA = MMA_SP_SHAPES[0]          # mma.sp.m16n8k32
BASELINE_MMA = MMA_DENSE_SHAPES[0]       # mma.m16n8k16


def require_sparse_alu(spec: GPUSpec) -> None:
    """Fail fast when the device lacks SpTC support (Table 1)."""
    if not spec.has_sparse_alu:
        raise HardwareModelError(
            f"{spec.name} ({spec.architecture}) has no sparse ALU; "
            "Samoyeds' mandatory requirement is unmet"
        )


def instructions_per_warp_tile(mw: int, nw: int, kb: int,
                               shape: MmaShape) -> int:
    """Number of MMA instructions to cover an ``mw x nw x kb`` warp tile.

    Raises :class:`TilingError` when the warp tile does not decompose into
    whole instructions — the same constraint NVCC enforces on real kernels.
    """
    if mw % shape.m or nw % shape.n or kb % shape.k:
        raise TilingError(
            f"warp tile {mw}x{nw}x{kb} is not a multiple of {shape.name} "
            f"({shape.m}x{shape.n}x{shape.k})"
        )
    return (mw // shape.m) * (nw // shape.n) * (kb // shape.k)


def mma_cycles(num_instructions: int, shape: MmaShape, spec: GPUSpec) -> float:
    """SM-cycles to issue ``num_instructions`` MMAs on one warp scheduler.

    Derived from the device's per-SM tensor-core FLOP rate: an SM retires
    ``tc_flops_per_sm_cycle`` dense FLOPs per cycle (doubled for sparse),
    so one instruction costs ``flops / rate`` cycles of SM-wide tensor-core
    issue bandwidth.
    """
    rate = spec.tc_flops_per_sm_cycle
    if shape.sparse:
        require_sparse_alu(spec)
        rate *= spec.sparse_tc_speedup
    return num_instructions * shape.flops / rate
