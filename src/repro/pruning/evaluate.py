"""Prune -> (fine-tune) -> measure pipelines for Tables 4 and 5.

The pipeline trains a dense model once and snapshots its full training
state: weights, biases, optimizer moments and step counts (and the LM's
embedding and its optimizer).  Each pruning method starts from that
snapshot, so no method sees another's fine-tune and a method's score
does not depend on the order of ``methods``.  From there it masks the
prunable layers with the method's pattern (saliency-ranked), optionally
fine-tunes briefly with gradients projected onto the mask
(SparseML-style recovery), and records the metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats.samoyeds import SamoyedsPattern
from repro.formats.venom import VenomPattern
from repro.pruning.masks import build_mask, mask_sparsity
from repro.pruning.nets import MLPClassifier, TinyLM
from repro.pruning.tasks import (
    ClassificationTask,
    SequenceTask,
    macro_f1,
    perplexity,
)


@dataclass
class AccuracyReport:
    """Metric per pruning method, plus the dense reference."""

    metric_name: str
    dense: float
    pruned: dict[str, float] = field(default_factory=dict)
    sparsities: dict[str, float] = field(default_factory=dict)

    def retention(self, method: str) -> float:
        """pruned / dense for higher-is-better metrics."""
        if self.dense == 0:
            return 0.0
        return self.pruned[method] / self.dense

    def degradation(self, method: str) -> float:
        """pruned - dense for lower-is-better metrics (perplexity)."""
        return self.pruned[method] - self.dense


def _apply_method(net, method: str,
                  samoyeds: SamoyedsPattern | None,
                  venom: VenomPattern | None,
                  sparsity: float) -> float:
    """Mask every prunable layer; returns achieved mean sparsity."""
    achieved = []
    for layer in net.prunable_layers():
        mask = build_mask(net.weights[layer], method,
                          samoyeds=samoyeds, venom=venom,
                          sparsity=sparsity)
        net.set_mask(layer, mask)
        achieved.append(mask_sparsity(mask))
    return float(np.mean(achieved)) if achieved else 0.0


def evaluate_classifier_pruning(
        task: ClassificationTask,
        methods: dict[str, dict] | None = None,
        hidden: list[int] | None = None,
        train_epochs: int = 25,
        finetune_epochs: int = 5,
        seed: int = 7) -> AccuracyReport:
    """Table-4 pipeline: F1 of an MLP under each pruning pattern.

    ``methods`` maps a label to ``build_mask`` keyword arguments, e.g.
    ``{"samoyeds(1,2,16)": {"method": "samoyeds",
    "samoyeds": SamoyedsPattern(1, 2, 16)}}``.
    """
    methods = methods or _default_methods()
    hidden = hidden or [128, 128]
    net = MLPClassifier(task.in_dim, hidden, task.num_classes, seed=seed)
    net.fit(task.x_train, task.y_train, epochs=train_epochs, seed=seed)
    dense_f1 = macro_f1(task.y_test, net.predict(task.x_test),
                        task.num_classes)
    dense = net.snapshot()

    report = AccuracyReport(metric_name="macro_f1", dense=dense_f1)
    for label, kwargs in methods.items():
        net.restore(dense)
        achieved = _apply_method(
            net, kwargs["method"], kwargs.get("samoyeds"),
            kwargs.get("venom"), kwargs.get("sparsity", 0.75))
        if finetune_epochs:
            net.fit(task.x_train, task.y_train, epochs=finetune_epochs,
                    seed=seed + 1)
        report.pruned[label] = macro_f1(
            task.y_test, net.predict(task.x_test), task.num_classes)
        report.sparsities[label] = achieved
    return report


def evaluate_lm_pruning(
        task: SequenceTask,
        methods: dict[str, dict] | None = None,
        embed_dim: int = 32,
        hidden: list[int] | None = None,
        train_epochs: int = 8,
        finetune_epochs: int = 2,
        seed: int = 11) -> AccuracyReport:
    """Table-5 pipeline: perplexity of a tiny LM under each pattern."""
    methods = methods or _default_methods()
    hidden = hidden or [128, 128]
    net = TinyLM(task.vocab, task.context, embed_dim, hidden, seed=seed)
    net.fit(task.train_contexts, task.train_targets, epochs=train_epochs,
            seed=seed)
    dense_ppl = perplexity(net.token_nll(task.test_contexts,
                                         task.test_targets))
    dense = net.snapshot()

    report = AccuracyReport(metric_name="perplexity", dense=dense_ppl)
    for label, kwargs in methods.items():
        net.restore(dense)
        achieved = _apply_method(
            net, kwargs["method"], kwargs.get("samoyeds"),
            kwargs.get("venom"), kwargs.get("sparsity", 0.75))
        if finetune_epochs:
            net.fit(task.train_contexts, task.train_targets,
                    epochs=finetune_epochs, seed=seed + 1)
        report.pruned[label] = perplexity(
            net.token_nll(task.test_contexts, task.test_targets))
        report.sparsities[label] = achieved
    return report


def _default_methods() -> dict[str, dict]:
    """Table 5's column set at the paper's uniform 75% sparsity."""
    return {
        "unstructured": {"method": "unstructured", "sparsity": 0.75},
        "venom": {"method": "venom", "venom": VenomPattern(64, 2, 4)},
        "samoyeds": {"method": "samoyeds",
                     "samoyeds": SamoyedsPattern(1, 2, 32)},
    }
