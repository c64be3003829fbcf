"""End-to-end pruning evaluation pipelines (Tables 4 and 5 logic)."""

import pytest

from repro.formats.samoyeds import SamoyedsPattern
from repro.pruning import (
    evaluate_classifier_pruning,
    evaluate_lm_pruning,
    make_classification_task,
    make_sequence_task,
)
from repro.pruning.evaluate import _default_methods


@pytest.fixture(scope="module")
def clf_report():
    task = make_classification_task(seed=3)
    return evaluate_classifier_pruning(task, train_epochs=25,
                                       finetune_epochs=5, seed=3)


@pytest.fixture(scope="module")
def lm_report():
    task = make_sequence_task(train_tokens=8000, test_tokens=2000,
                              seed=4)
    return evaluate_lm_pruning(task, train_epochs=5, finetune_epochs=1,
                               seed=4)


class TestClassifierPipeline:
    def test_dense_baseline_is_strong(self, clf_report):
        assert clf_report.dense > 0.75

    def test_all_methods_evaluated(self, clf_report):
        assert set(clf_report.pruned) == {"unstructured", "venom",
                                          "samoyeds"}

    def test_sparsities_near_75(self, clf_report):
        for method, sparsity in clf_report.sparsities.items():
            assert sparsity == pytest.approx(0.75, abs=0.01), method

    def test_samoyeds_retention_high(self, clf_report):
        """Table 4's claim: >99% retention in the paper; we allow the
        noisier proxy a small margin."""
        assert clf_report.retention("samoyeds") > 0.95

    def test_samoyeds_not_worse_than_venom(self, clf_report):
        assert (clf_report.pruned["samoyeds"]
                >= clf_report.pruned["venom"] - 0.01)


class TestLmPipeline:
    def test_all_methods_evaluated(self, lm_report):
        assert set(lm_report.pruned) == {"unstructured", "venom",
                                         "samoyeds"}

    def test_samoyeds_beats_venom(self, lm_report):
        """Table 5's ordering (lower perplexity is better)."""
        assert (lm_report.pruned["samoyeds"]
                <= lm_report.pruned["venom"] * 1.005)

    def test_small_degradation_vs_dense(self, lm_report):
        assert lm_report.degradation("samoyeds") < 0.2 * lm_report.dense

    def test_unstructured_is_ceiling(self, lm_report):
        assert (lm_report.pruned["unstructured"]
                <= lm_report.pruned["samoyeds"] + 0.05 * lm_report.dense)


class TestCustomMethods:
    def test_custom_pattern_set(self):
        task = make_classification_task(num_samples=600, seed=5)
        methods = {
            "(1,2,16)": {"method": "samoyeds",
                         "samoyeds": SamoyedsPattern(1, 2, 16)},
            "(8,16,32)": {"method": "samoyeds",
                          "samoyeds": SamoyedsPattern(8, 16, 32)},
        }
        report = evaluate_classifier_pruning(
            task, methods=methods, train_epochs=8, finetune_epochs=2,
            seed=5)
        assert set(report.pruned) == set(methods)
        # Table 4's stability claim across configurations.
        values = list(report.pruned.values())
        assert max(values) - min(values) < 0.08


class TestMethodOrder:
    """Every method fine-tunes from the trained dense state, so its score
    does not depend on which methods ran before it."""

    def _check(self, evaluate, task, **kwargs):
        methods = _default_methods()
        labels = list(methods)
        forward = evaluate(task, methods=methods, **kwargs)
        backward = evaluate(task, methods=dict(reversed(methods.items())),
                            **kwargs)
        assert list(backward.pruned) == labels[::-1]
        assert backward.pruned == forward.pruned
        assert backward.dense == forward.dense
        last = labels[-1]
        alone = evaluate(task, methods={last: methods[last]}, **kwargs)
        assert alone.pruned[last] == forward.pruned[last]

    def test_classifier_scores_ignore_method_order(self):
        task = make_classification_task(num_samples=600, seed=5)
        self._check(evaluate_classifier_pruning, task, train_epochs=4,
                    finetune_epochs=2, seed=5)

    def test_lm_scores_ignore_method_order(self):
        task = make_sequence_task(train_tokens=4000, test_tokens=1000,
                                  seed=4)
        self._check(evaluate_lm_pruning, task, train_epochs=2,
                    finetune_epochs=1, seed=4)
