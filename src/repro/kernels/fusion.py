"""Operator fusion (§4.3, last paragraph).

Two fusions ride on the Samoyeds kernel epilogue:

* the expert activation function (SiLU/GELU) fuses with its producing
  GEMM, removing one intermediate round trip;
* the weighted accumulation of expert outputs (scalar broadcast + dot
  product) fuses with the ``down_proj`` GEMM, removing another round trip
  *and* a kernel launch.

The functional faces below are used by the MoE layer engines; the byte
accounting feeds the layer-level cost models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.spec import GPUSpec


@dataclass(frozen=True)
class FusionPlan:
    """Which epilogue fusions are enabled."""

    fuse_activation: bool = True
    fuse_weighted_acc: bool = True

    @property
    def extra_kernel_launches(self) -> int:
        """Standalone elementwise kernels needed when fusion is off."""
        return (0 if self.fuse_activation else 1) + \
               (0 if self.fuse_weighted_acc else 1)


def fused_weighted_accumulate(acc: np.ndarray, expert_out: np.ndarray,
                              gate_weights: np.ndarray,
                              token_ids: np.ndarray) -> np.ndarray:
    """Scatter-add ``gate_weights * expert_out`` into the shared output.

    Args:
        acc: ``(tokens, hidden)`` running output (modified in place).
        expert_out: ``(len_d, hidden)`` this expert's rows.
        gate_weights: ``(len_d,)`` router weights for those rows.
        token_ids: ``(len_d,)`` destination row ids.
    """
    np.add.at(acc, token_ids, gate_weights[:, None] * expert_out)
    return acc


def unfused_extra_seconds(m: int, n: int, plan: FusionPlan,
                          spec: GPUSpec, dtype_bytes: int = 2) -> float:
    """Time added by the round trips and launches fusion would remove."""
    roundtrip = 2.0 * m * n * dtype_bytes / spec.dram_bandwidth
    extra = 0.0
    if not plan.fuse_activation:
        extra += roundtrip + spec.kernel_launch_overhead_s
    if not plan.fuse_weighted_acc:
        extra += roundtrip + spec.kernel_launch_overhead_s
    return extra
