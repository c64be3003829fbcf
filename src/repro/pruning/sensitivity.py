"""Layer-wise pruning sensitivity and sparsity allocation.

An extension in the direction of DominoSearch (cited in §7): rather than
a uniform `(N, M, V)` everywhere, measure each layer's sensitivity to
the pattern and allocate sparsity where it is cheap.  The pipeline:

1. :func:`layer_sensitivity` — per-layer metric drop when only that
   layer is pruned (one-at-a-time scan);
2. :func:`allocate_sparsity` — greedy assignment of per-layer `(N, M)`
   ratios under a global parameter budget, spending density on the most
   sensitive layers first.

Kept deliberately simple — the point is the mechanism and its tests,
not a new pruning paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.formats.samoyeds import SamoyedsPattern
from repro.pruning.masks import build_mask
from repro.pruning.nets import MLPClassifier
from repro.pruning.tasks import ClassificationTask, macro_f1


@dataclass(frozen=True)
class SensitivityReport:
    """Per-layer metric deltas from one-at-a-time pruning."""

    dense_metric: float
    per_layer: dict[int, float]

    def ranking(self) -> list[int]:
        """Layers ordered most-sensitive first (largest drop)."""
        return sorted(self.per_layer,
                      key=lambda layer: self.per_layer[layer])

    def drop(self, layer: int) -> float:
        return self.dense_metric - self.per_layer[layer]


def layer_sensitivity(net: MLPClassifier, task: ClassificationTask,
                      pattern: SamoyedsPattern) -> SensitivityReport:
    """Prune one layer at a time and record the test metric.

    The network ends in the training state it came in with.
    """
    dense = macro_f1(task.y_test, net.predict(task.x_test),
                     task.num_classes)
    saved = net.snapshot()
    per_layer: dict[int, float] = {}
    for layer in net.prunable_layers():
        net.restore(saved)
        mask = build_mask(net.weights[layer], "samoyeds",
                          samoyeds=pattern)
        net.set_mask(layer, mask)
        per_layer[layer] = macro_f1(task.y_test,
                                    net.predict(task.x_test),
                                    task.num_classes)
    net.restore(saved)
    return SensitivityReport(dense_metric=dense, per_layer=per_layer)


#: Ratio menu: (N, M) choices at a fixed V, densest first.
RATIO_MENU: tuple[tuple[int, int], ...] = ((4, 4), (3, 4), (2, 4), (1, 4))


def allocate_sparsity(report: SensitivityReport,
                      layer_params: dict[int, int],
                      target_density: float,
                      v: int = 32) -> dict[int, SamoyedsPattern]:
    """Assign per-layer `(N, M, V)` under a global density budget.

    Greedy: start everywhere at the sparsest menu entry, then spend the
    remaining budget upgrading the most sensitive layers to denser
    ratios until the parameter-weighted density would exceed
    ``target_density``.
    """
    if not 0.0 < target_density <= 1.0:
        raise ConfigError("target_density must be in (0, 1]")
    layers = list(report.per_layer)
    if set(layers) != set(layer_params):
        raise ConfigError("layer_params must cover exactly the scanned "
                          "layers")
    total_params = sum(layer_params.values())
    sparsest = RATIO_MENU[-1]
    assignment = {layer: sparsest for layer in layers}

    def overall_density(assign: dict[int, tuple[int, int]]) -> float:
        return sum(layer_params[i] * (n / m) * 0.5
                   for i, (n, m) in assign.items()) / total_params

    for layer in report.ranking():               # most sensitive first
        for ratio in RATIO_MENU:                 # densest first
            trial = dict(assignment)
            trial[layer] = ratio
            if overall_density(trial) <= target_density:
                assignment = trial
                break
    return {layer: SamoyedsPattern(n, m, v)
            for layer, (n, m) in assignment.items()}


def achieved_density(patterns: dict[int, SamoyedsPattern],
                     layer_params: dict[int, int]) -> float:
    """Parameter-weighted density of an allocation."""
    total = sum(layer_params.values())
    if total == 0:
        return 0.0
    return sum(layer_params[i] * p.density
               for i, p in patterns.items()) / total


def apply_allocation(net: MLPClassifier,
                     patterns: dict[int, SamoyedsPattern]) -> None:
    """Mask the network with a per-layer allocation."""
    for layer, pattern in patterns.items():
        mask = build_mask(net.weights[layer], "samoyeds",
                          samoyeds=pattern)
        net.set_mask(layer, mask)
