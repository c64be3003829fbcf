"""Layer sensitivity scan and sparsity allocation."""

import pytest

from repro.errors import ConfigError
from repro.formats.samoyeds import SamoyedsPattern
from repro.pruning import MLPClassifier, make_classification_task
from repro.pruning.sensitivity import (
    RATIO_MENU,
    SensitivityReport,
    achieved_density,
    allocate_sparsity,
    apply_allocation,
    layer_sensitivity,
)
from repro.pruning.tasks import macro_f1


@pytest.fixture(scope="module")
def trained():
    task = make_classification_task(num_samples=900, seed=21)
    net = MLPClassifier(task.in_dim, [128, 128], task.num_classes,
                        seed=21)
    net.fit(task.x_train, task.y_train, epochs=15, seed=21)
    return net, task


class TestSensitivity:
    def test_scan_covers_prunable_layers(self, trained):
        net, task = trained
        report = layer_sensitivity(net, task, SamoyedsPattern(1, 2, 32))
        assert set(report.per_layer) == set(net.prunable_layers())

    def test_scan_restores_network(self, trained):
        net, task = trained
        before = macro_f1(task.y_test, net.predict(task.x_test),
                          task.num_classes)
        layer_sensitivity(net, task, SamoyedsPattern(1, 2, 32))
        after = macro_f1(task.y_test, net.predict(task.x_test),
                         task.num_classes)
        assert after == pytest.approx(before)

    def test_ranking_sorted_by_metric(self):
        report = SensitivityReport(dense_metric=0.9,
                                   per_layer={0: 0.85, 1: 0.70})
        assert report.ranking() == [1, 0]
        assert report.drop(1) == pytest.approx(0.2)


class TestAllocation:
    def _report(self):
        return SensitivityReport(dense_metric=0.9,
                                 per_layer={0: 0.6, 1: 0.88})

    def test_budget_respected(self):
        report = self._report()
        params = {0: 1000, 1: 1000}
        patterns = allocate_sparsity(report, params, target_density=0.3)
        assert achieved_density(patterns, params) <= 0.3 + 1e-9

    def test_sensitive_layer_gets_density(self):
        report = self._report()
        params = {0: 1000, 1: 1000}
        patterns = allocate_sparsity(report, params, target_density=0.3)
        # Layer 0 dropped more -> at least as dense as layer 1.
        assert patterns[0].density >= patterns[1].density

    def test_tight_budget_forces_sparsest(self):
        report = self._report()
        params = {0: 1000, 1: 1000}
        sparsest_density = RATIO_MENU[-1][0] / RATIO_MENU[-1][1] * 0.5
        patterns = allocate_sparsity(report, params,
                                     target_density=sparsest_density)
        assert all(p.density == pytest.approx(sparsest_density)
                   for p in patterns.values())

    def test_loose_budget_keeps_dense(self):
        report = self._report()
        params = {0: 1000, 1: 1000}
        patterns = allocate_sparsity(report, params, target_density=0.5)
        assert patterns[0].density == pytest.approx(0.5)

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigError):
            allocate_sparsity(self._report(), {0: 1, 1: 1},
                              target_density=0.0)

    def test_mismatched_layers_rejected(self):
        with pytest.raises(ConfigError):
            allocate_sparsity(self._report(), {0: 1}, target_density=0.5)

    def test_apply_allocation_masks_layers(self, trained):
        import numpy as np
        net, task = trained
        saved = net.snapshot()
        report = layer_sensitivity(net, task, SamoyedsPattern(1, 2, 32))
        params = {i: net.weights[i].size for i in report.per_layer}
        patterns = allocate_sparsity(report, params, target_density=0.3)
        apply_allocation(net, patterns)
        for layer, pattern in patterns.items():
            density = (np.count_nonzero(net.weights[layer])
                       / net.weights[layer].size)
            assert density <= pattern.density + 1e-9
        net.restore(saved)
