"""Trainable numpy networks: learning, masking, fine-tuning."""

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.pruning import MLPClassifier, TinyLM
from repro.pruning.nets import _Adam
from repro.pruning.tasks import (
    macro_f1,
    make_classification_task,
    make_sequence_task,
    perplexity,
)
from repro.utils.rng import new_rng


class TestMLP:
    def test_training_reduces_loss(self):
        task = make_classification_task(num_samples=400, seed=0)
        net = MLPClassifier(task.in_dim, [64], task.num_classes, seed=0)
        history = net.fit(task.x_train, task.y_train, epochs=10, seed=0)
        assert history[-1] < history[0]

    def test_learns_above_chance(self):
        task = make_classification_task(num_samples=800, seed=1)
        net = MLPClassifier(task.in_dim, [64, 64], task.num_classes,
                            seed=1)
        net.fit(task.x_train, task.y_train, epochs=15, seed=1)
        f1 = macro_f1(task.y_test, net.predict(task.x_test),
                      task.num_classes)
        assert f1 > 3.0 / task.num_classes

    def test_mask_is_preserved_through_finetuning(self):
        task = make_classification_task(num_samples=300, seed=2)
        net = MLPClassifier(task.in_dim, [64], task.num_classes, seed=2)
        net.fit(task.x_train, task.y_train, epochs=3, seed=2)
        mask = np.zeros_like(net.weights[0], dtype=bool)
        mask[:, ::2] = True
        net.set_mask(0, mask)
        net.fit(task.x_train, task.y_train, epochs=3, seed=3)
        assert np.all(net.weights[0][~mask] == 0.0)

    def test_mask_shape_checked(self):
        net = MLPClassifier(8, [16], 4, seed=0)
        with pytest.raises(ShapeError):
            net.set_mask(0, np.ones((2, 2), dtype=bool))

    def test_prunable_layers_exclude_head(self):
        net = MLPClassifier(8, [16, 16], 4, seed=0)
        assert net.prunable_layers() == [0, 1]

    def test_clone_restore(self):
        net = MLPClassifier(8, [16], 4, seed=0)
        saved = net.snapshot()
        net.weights[0][...] = 0.0
        net.restore(saved)
        assert np.any(net.weights[0] != 0.0)

    def test_restore_rewinds_training(self):
        """Biases and Adam moments come back too, not just weights."""
        task = make_classification_task(num_samples=200, seed=3)
        net = MLPClassifier(task.in_dim, [32], task.num_classes, seed=3)
        net.fit(task.x_train, task.y_train, epochs=2, seed=3)
        saved = net.snapshot()
        first = net.fit(task.x_train, task.y_train, epochs=2, seed=4)
        for _ in range(2):                  # the snapshot stays reusable
            net.restore(saved)
            assert net.fit(task.x_train, task.y_train, epochs=2,
                           seed=4) == first

    def test_needs_two_dims(self):
        with pytest.raises(ConfigError):
            MLPClassifier.__bases__[0]([8])  # _DenseNet with one dim


class TestTinyLM:
    def test_training_reduces_loss(self):
        task = make_sequence_task(train_tokens=2000, test_tokens=500,
                                  seed=0)
        net = TinyLM(task.vocab, task.context, 16, [64], seed=0)
        history = net.fit(task.train_contexts, task.train_targets,
                          epochs=3, seed=0)
        assert history[-1] < history[0]

    def test_beats_uniform_perplexity(self):
        task = make_sequence_task(train_tokens=6000, test_tokens=1500,
                                  seed=1)
        net = TinyLM(task.vocab, task.context, 16, [64], seed=1)
        net.fit(task.train_contexts, task.train_targets, epochs=5,
                seed=1)
        ppl = perplexity(net.token_nll(task.test_contexts,
                                       task.test_targets))
        assert ppl < task.vocab        # uniform model has ppl == vocab

    def test_restore_rewinds_training(self):
        """The embedding and its optimizer come back with the rest."""
        task = make_sequence_task(train_tokens=600, test_tokens=100,
                                  seed=3)
        net = TinyLM(task.vocab, task.context, 8, [32], seed=3)
        net.fit(task.train_contexts, task.train_targets, epochs=1, seed=3)
        saved = net.snapshot()
        first = net.fit(task.train_contexts, task.train_targets, epochs=2,
                        seed=4)
        net.restore(saved)
        assert net.fit(task.train_contexts, task.train_targets, epochs=2,
                       seed=4) == first

    def test_token_nll_shape(self):
        task = make_sequence_task(train_tokens=500, test_tokens=200,
                                  seed=2)
        net = TinyLM(task.vocab, task.context, 8, [32], seed=2)
        nll = net.token_nll(task.test_contexts, task.test_targets)
        assert nll.shape == task.test_targets.shape
        assert np.all(nll >= 0)


class TestMetrics:
    def test_macro_f1_perfect(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        assert macro_f1(y, y, 3) == 1.0

    def test_macro_f1_worst(self):
        y_true = np.zeros(6, dtype=int)
        y_pred = np.ones(6, dtype=int)
        assert macro_f1(y_true, y_pred, 2) == 0.0

    def test_macro_f1_absent_class_counts_as_perfect(self):
        y_true = np.array([0, 0])
        y_pred = np.array([0, 0])
        assert macro_f1(y_true, y_pred, 2) == 1.0

    def test_perplexity(self):
        assert perplexity(np.array([0.0, 0.0])) == pytest.approx(1.0)
        assert perplexity(np.log(np.array([4.0]))) == pytest.approx(4.0)


class TestTasks:
    def test_classification_split_sizes(self):
        task = make_classification_task(num_samples=100,
                                        test_fraction=0.25, seed=0)
        assert len(task.x_train) == 75
        assert len(task.x_test) == 25

    def test_classification_needs_two_classes(self):
        with pytest.raises(ConfigError):
            make_classification_task(num_classes=1)

    def test_sequence_windows_align(self):
        task = make_sequence_task(train_tokens=1000, test_tokens=300,
                                  seed=0)
        assert task.train_contexts.shape[1] == task.context
        assert len(task.train_contexts) == len(task.train_targets)
        # Every context's successor is the target of that window.
        assert task.train_contexts.max() < task.vocab

    def test_sequence_task_deterministic(self):
        a = make_sequence_task(train_tokens=500, test_tokens=100, seed=9)
        b = make_sequence_task(train_tokens=500, test_tokens=100, seed=9)
        assert np.array_equal(a.train_targets, b.train_targets)


class TestExactTrainingStep:
    """Each training piece against a plain reference in this file.

    The pruning tables are only reproducible if every rewrite of the
    training step keeps the same float operations in the same order, so
    these compare with ``np.array_equal``, not a tolerance.  Both sides
    run in this process on the same BLAS.
    """

    def test_adam_matches_textbook_formula(self):
        rng = np.random.default_rng(0)
        # Big enough that a reordered or reassociated update changes
        # some last bit within a few steps.
        param = rng.normal(size=(64, 64))
        ref_param = param.copy()
        opt = _Adam(lr=3e-3)
        ref_m = np.zeros_like(param)
        ref_v = np.zeros_like(param)
        mask = rng.random(param.shape) < 0.5
        for t in range(1, 6):
            grad = rng.normal(size=param.shape)
            if t == 3:
                grad = grad * mask
            opt.step(param, grad)
            ref_m = opt.beta1 * ref_m + (1 - opt.beta1) * grad
            ref_v = opt.beta2 * ref_v + (1 - opt.beta2) * grad ** 2
            m_hat = ref_m / (1 - opt.beta1 ** t)
            v_hat = ref_v / (1 - opt.beta2 ** t)
            ref_param -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
            assert np.array_equal(param, ref_param), t
            assert np.array_equal(opt.m, ref_m), t
            assert np.array_equal(opt.v, ref_v), t

    @pytest.mark.parametrize("hidden", [[24], [24, 16]])
    def test_lm_gradients_match_explicit_chain(self, hidden):
        vocab, context, embed_dim, n = 11, 3, 4, 40
        net = TinyLM(vocab, context, embed_dim, hidden, seed=5)
        rng = np.random.default_rng(6)
        # Few tokens in many slots, so embedding rows repeat.
        contexts = rng.integers(0, 4, size=(n, context))
        targets = rng.integers(0, vocab, size=n)
        loss, grads, dembed = net.loss_and_grads(contexts, targets)

        acts = [net.embedding[contexts].reshape(n, -1)]
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            h = acts[-1] @ w.T + b
            acts.append(np.maximum(h, 0.0) if i < len(hidden) else h)
        shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1,
                                                       keepdims=True)
        ref_loss = -np.mean(np.log(probs[np.arange(n), targets] + 1e-12))
        delta = probs.copy()
        delta[np.arange(n), targets] -= 1.0
        delta /= n
        ref_grads = []
        for i in reversed(range(len(net.weights))):
            ref_grads.insert(0, (delta.T @ acts[i], delta.sum(axis=0)))
            if i > 0:
                delta = (delta @ net.weights[i]) * (acts[i] > 0)
        dfeat = delta @ net.weights[0]
        ref_dembed = np.zeros_like(net.embedding)
        np.add.at(ref_dembed, contexts,
                  dfeat.reshape(n, context, embed_dim))

        assert loss == ref_loss
        for (dw, db), (ref_dw, ref_db) in zip(grads, ref_grads):
            assert np.array_equal(dw, ref_dw)
            assert np.array_equal(db, ref_db)
        assert np.array_equal(dembed, ref_dembed)

    def test_sequence_sampler_matches_choice_loop(self):
        vocab, context, train_tokens, test_tokens = 9, 3, 300, 80
        task = make_sequence_task(vocab=vocab, context=context,
                                  train_tokens=train_tokens,
                                  test_tokens=test_tokens, seed=12)
        rng = new_rng(12)
        logits = rng.normal(0, 1.0, size=(vocab, vocab))
        boost = rng.integers(0, vocab, size=(vocab, 4))
        for s in range(vocab):
            logits[s, boost[s]] += 3.0
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        stream = [int(rng.integers(0, vocab))]
        for _ in range(train_tokens + test_tokens + context - 1):
            stream.append(int(rng.choice(vocab, p=probs[stream[-1]])))
        stream = np.array(stream)

        assert np.array_equal(task.train_targets,
                              stream[context:train_tokens + context])
        assert np.array_equal(task.test_targets,
                              stream[train_tokens + context:])
        assert np.array_equal(task.train_contexts[:, 0],
                              stream[:train_tokens])
