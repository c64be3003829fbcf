"""Synthetic tasks and metrics for the accuracy proxy.

* classification — anisotropic Gaussian clusters with nuisance rotations:
  hard enough that pruning damage shows, learnable by a small MLP.  The
  metric is macro-F1 (SQuAD reports F1).
* sequence — a random-transition Markov chain over a small vocabulary;
  next-token prediction measured in perplexity (GSM8K is reported in
  perplexity in Table 5).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import new_rng


@dataclass(frozen=True)
class ClassificationTask:
    """Train/test split of the synthetic classification task."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int

    @property
    def in_dim(self) -> int:
        return self.x_train.shape[1]


@dataclass(frozen=True)
class SequenceTask:
    """Train/test context-target pairs of the synthetic LM task."""

    train_contexts: np.ndarray
    train_targets: np.ndarray
    test_contexts: np.ndarray
    test_targets: np.ndarray
    vocab: int
    context: int


def make_classification_task(num_samples: int = 2000, in_dim: int = 64,
                             num_classes: int = 12,
                             test_fraction: float = 0.25,
                             noise: float = 2.4,
                             seed: int | np.random.Generator | None = None
                             ) -> ClassificationTask:
    """Gaussian-cluster classification with a shared random rotation.

    ``noise`` controls class overlap; the default puts a well-trained
    dense MLP near F1 ~0.9 (Bert-on-SQuAD territory) so that pruning
    damage is measurable rather than hidden by a saturated metric.
    """
    if num_classes < 2:
        raise ConfigError("need at least two classes")
    rng = new_rng(seed)
    centers = rng.normal(0, 1.3, size=(num_classes, in_dim))
    rotation, _ = np.linalg.qr(rng.normal(size=(in_dim, in_dim)))
    y = rng.integers(0, num_classes, size=num_samples)
    x = centers[y] + rng.normal(0, noise, size=(num_samples, in_dim))
    x = x @ rotation
    split = int(num_samples * (1.0 - test_fraction))
    return ClassificationTask(
        x_train=x[:split], y_train=y[:split],
        x_test=x[split:], y_test=y[split:],
        num_classes=num_classes)


def make_sequence_task(vocab: int = 64, context: int = 4,
                       train_tokens: int = 20000, test_tokens: int = 5000,
                       seed: int | np.random.Generator | None = None
                       ) -> SequenceTask:
    """Order-1 Markov chain text; contexts are sliding windows."""
    rng = new_rng(seed)
    # Sparse-ish transition matrix: each state strongly prefers a few
    # successors, giving the model real structure to learn.
    logits = rng.normal(0, 1.0, size=(vocab, vocab))
    boost = rng.integers(0, vocab, size=(vocab, 4))
    for s in range(vocab):
        logits[s, boost[s]] += 3.0
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)

    # What ``rng.choice(vocab, p=probs[state])`` does once per token:
    # normalise the row's cumsum by its last entry, draw one double and
    # bisect right.  All the doubles are drawn at once, which consumes
    # the generator identically; reading them through a memoryview and
    # writing the stream in place keeps no per-token Python objects,
    # which would stay in the allocator's arenas and raise peak RSS.
    cdfs = np.cumsum(probs, axis=1)
    cdfs /= cdfs[:, -1:]
    cdf_rows = cdfs.tolist()
    total = train_tokens + test_tokens + context
    stream = np.empty(total, dtype=np.int64)
    state = stream[0] = rng.integers(0, vocab)
    for t, u in enumerate(memoryview(rng.random(total - 1)), start=1):
        state = stream[t] = bisect_right(cdf_rows[state], u)

    def windows(seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ctx = np.lib.stride_tricks.sliding_window_view(
            seq[:-1], context)[: seq.size - context]
        tgt = seq[context:]
        return ctx.copy(), tgt.copy()

    train = stream[:train_tokens + context]
    test = stream[train_tokens:]
    tr_c, tr_t = windows(train)
    te_c, te_t = windows(test)
    return SequenceTask(train_contexts=tr_c, train_targets=tr_t,
                        test_contexts=te_c, test_targets=te_t,
                        vocab=vocab, context=context)


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray,
             num_classes: int) -> float:
    """Macro-averaged F1 (Table 4's metric shape)."""
    scores = []
    for c in range(num_classes):
        tp = np.sum((y_pred == c) & (y_true == c))
        fp = np.sum((y_pred == c) & (y_true != c))
        fn = np.sum((y_pred != c) & (y_true == c))
        if tp == 0:
            scores.append(0.0 if (fp or fn) else 1.0)
            continue
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        scores.append(2 * precision * recall / (precision + recall))
    return float(np.mean(scores))


def perplexity(nll_per_token: np.ndarray) -> float:
    """exp(mean NLL) (Table 5's metric)."""
    return float(np.exp(np.mean(nll_per_token)))
