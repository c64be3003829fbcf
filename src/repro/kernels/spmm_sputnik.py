"""Sputnik baseline: unstructured CSR SpMM on CUDA cores.

Sputnik (Gale et al., SC'20) is the leading open-source unstructured
sparse kernel for deep learning.  Its handicaps at LLM sparsity ratios
(50-90%) are exactly the ones §3.2 lists: no tensor cores (SIMT FMA
throughput only), per-nonzero index decode, scattered B-row gathers that
defeat coalescing and the L2, row-length load imbalance, and no
``cp.async`` pipeline — the model charges each of these explicitly, which
is why it lands 18-33x behind Samoyeds just as the paper measures.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CsrMatrix
from repro.hw.memory import AccessPattern, dram_bytes
from repro.hw.spec import GPUSpec
from repro.hw.tensorcore import MmaShape
from repro.kernels.base import GemmProblem, MatmulKernel
from repro.kernels.tiling import TilingConfig


def sputnik_spmm(weight: CsrMatrix, dense_rhs: np.ndarray) -> np.ndarray:
    """Functional unstructured SpMM (row-gather reference)."""
    return weight.matmul(dense_rhs)


class SputnikKernel(MatmulKernel):
    """Cost model of Sputnik's CSR SpMM."""

    name = "sputnik"
    EFFICIENCY = 0.55
    #: Sputnik predates cp.async; fetch and compute serialise.
    PIPELINE_STAGES = 1
    A_DENSITY = 0.25          # evaluated at the paper's 75% sparsity
    SPARSITY_FORMAT = "csr"
    USES_TENSOR_CORES = False
    #: Extra SIMT cycles per non-zero for index decode and address math.
    DECODE_CYCLES_PER_NNZ = 2.0
    #: Random gathers defeat stripe reuse; rows arrive uncoalesced.
    GATHER_AMPLIFICATION = 1.5
    #: Static imbalance factor for the synthetic (uniform) workloads.
    IMBALANCE = 1.3

    def __init__(self, density: float = 0.25) -> None:
        self.density = density

    def mma_shape(self) -> MmaShape:
        # SIMT kernel: no tensor-core instruction; return the dense shape
        # only to satisfy tiling legality for grid arithmetic.
        from repro.hw.tensorcore import BASELINE_MMA
        return BASELINE_MMA

    def compute_cycles_per_iter(self, cfg: TilingConfig,
                                spec: GPUSpec) -> float:
        nnz = cfg.mb * cfg.kb * self.density
        fma_flops = 2.0 * nnz * cfg.nb
        fma_cycles = fma_flops / spec.cuda_core_flops_per_sm_cycle
        decode = nnz * self.DECODE_CYCLES_PER_NNZ
        return (fma_cycles + decode) * self.IMBALANCE

    def a_bytes_per_iter(self, cfg: TilingConfig, spec: GPUSpec) -> float:
        # values (2B) + column indices (4B) per non-zero, CSR-contiguous.
        nnz = cfg.mb * cfg.kb * self.density
        return dram_bytes(
            AccessPattern(rows=1, row_bytes=max(int(nnz * 6), 1),
                          contiguous=True), spec)

    def b_bytes_per_iter(self, cfg: TilingConfig, spec: GPUSpec) -> float:
        # every referenced B row is gathered individually, no cp.async,
        # poor sector utilisation.
        base_bytes = dram_bytes(
            AccessPattern(rows=cfg.kb, row_bytes=cfg.nb * 2), spec)
        return base_bytes * self.GATHER_AMPLIFICATION

    def cache_stripes(self, problem: GemmProblem, cfg: TilingConfig
                      ) -> tuple[float, float]:
        # Scattered accesses get no deterministic stripe reuse in L2.
        del problem, cfg
        return 0.0, 0.0

    def smem_cycles_per_iter(self, cfg: TilingConfig,
                             spec: GPUSpec) -> float:
        # No ldmatrix: scalar lds with 2-way conflicts on the gathers.
        from repro.hw.memory import smem_load_cycles
        frag_bytes = cfg.warps_per_block * (cfg.mw * cfg.kb * self.density
                                            + cfg.kb * cfg.nw) * 2
        return smem_load_cycles(int(frag_bytes), conflict_ways=2, spec=spec)


SPUTNIK = SputnikKernel()
