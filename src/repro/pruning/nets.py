"""Trainable numpy networks for the accuracy proxy.

Two small models stand in for the paper's Bert (classification / F1) and
Tiny-LLaMA / Qwen2 (generation / perplexity):

* :class:`MLPClassifier` — ReLU MLP with softmax cross-entropy;
* :class:`TinyLM` — embedding + MLP next-token language model.

Both support mask-frozen fine-tuning, mirroring the gradual-pruning
recipe of the SparseML scripts: after pruning, gradients are projected
onto the surviving weights so the pattern is preserved.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.utils.rng import new_rng


@dataclass
class _Adam:
    """Minimal Adam state for one parameter tensor."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        """One textbook Adam update, in place.

        The same elementwise operations in the same order as
        ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
        p -= lr * (m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)``, so the
        result is bit-identical; ``m`` and ``v`` are updated in place
        and the intermediates share two per-call temporaries.
        """
        if self.m is None:
            self.m = np.zeros_like(param)
            self.v = np.zeros_like(param)
        self.t += 1
        m, v = self.m, self.v
        m *= self.beta1
        tmp = grad * (1 - self.beta1)
        m += tmp
        np.square(grad, out=tmp)
        tmp *= 1 - self.beta2
        v *= self.beta2
        v += tmp
        step = m / (1 - self.beta1 ** self.t)
        step *= self.lr
        np.divide(v, 1 - self.beta2 ** self.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        step /= tmp
        param -= step


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class _DenseNet:
    """Shared MLP core: linear layers with ReLU between them."""

    #: Attributes that :meth:`snapshot` copies and :meth:`restore` sets.
    _STATE: tuple[str, ...] = ("weights", "biases", "_masks", "_optim")

    def __init__(self, dims: list[int],
                 seed: int | np.random.Generator | None = None) -> None:
        if len(dims) < 2:
            raise ConfigError("need at least input and output dims")
        rng = new_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0, scale, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        self._masks: list[np.ndarray | None] = [None] * len(self.weights)
        self._optim = [(_Adam(), _Adam()) for _ in self.weights]

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Logits plus per-layer activations (for backprop)."""
        acts = [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T
            h += b
            if i < len(self.weights) - 1:
                np.maximum(h, 0.0, out=h)
            acts.append(h)
        return h, acts

    def backward(self, acts: list[np.ndarray], dlogits: np.ndarray,
                 input_grad: bool = False
                 ) -> tuple[list[tuple[np.ndarray, np.ndarray]],
                            np.ndarray | None]:
        """Gradients (dW, db) per layer from the logit gradient, and the
        gradient of the network input when ``input_grad`` (else None)."""
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(
            self.weights)  # type: ignore[list-item]
        delta = dlogits
        for i in reversed(range(len(self.weights))):
            grads[i] = (delta.T @ acts[i], delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.weights[i]) * (acts[i] > 0)
        return grads, (delta @ self.weights[0] if input_grad else None)

    def apply_step(self, grads: list[tuple[np.ndarray, np.ndarray]]) -> None:
        for i, (dw, db) in enumerate(grads):
            if self._masks[i] is not None:
                dw = dw * self._masks[i]
            opt_w, opt_b = self._optim[i]
            opt_w.step(self.weights[i], dw)
            opt_b.step(self.biases[i], db)
            if self._masks[i] is not None:
                self.weights[i] *= self._masks[i]

    # ------------------------------------------------------------------
    # Pruning interface
    # ------------------------------------------------------------------
    def prunable_layers(self) -> list[int]:
        """Hidden-layer indices (final classifier layer stays dense)."""
        return list(range(len(self.weights) - 1))

    def set_mask(self, layer: int, mask: np.ndarray) -> None:
        if mask.shape != self.weights[layer].shape:
            raise ShapeError(
                f"mask shape {mask.shape} != weight "
                f"{self.weights[layer].shape}")
        self._masks[layer] = mask.astype(bool)
        self.weights[layer] *= self._masks[layer]

    # ------------------------------------------------------------------
    # Training-state snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Deep copy of the whole training state.

        That is the weights, biases, masks and every optimizer's moments
        and step count (plus the embedding and its optimizer for
        :class:`TinyLM`), so fine-tuning after :meth:`restore` does
        exactly what it would have done right after the snapshot.
        """
        return copy.deepcopy({name: getattr(self, name)
                              for name in self._STATE})

    def restore(self, snapshot: dict[str, object]) -> None:
        """Return to ``snapshot``'s state; the snapshot stays reusable."""
        for name, value in copy.deepcopy(snapshot).items():
            setattr(self, name, value)


class MLPClassifier(_DenseNet):
    """ReLU MLP with softmax cross-entropy (the F1 proxy for Bert)."""

    def __init__(self, in_dim: int, hidden: list[int], num_classes: int,
                 seed: int | np.random.Generator | None = None) -> None:
        super().__init__([in_dim, *hidden, num_classes], seed=seed)
        self.num_classes = num_classes

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray):
        logits, acts = self.forward(x)
        probs = _softmax(logits)
        n = x.shape[0]
        loss = -np.mean(np.log(probs[np.arange(n), y] + 1e-12))
        dlogits = probs.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        grads, _ = self.backward(acts, dlogits)
        return loss, grads

    def fit(self, x: np.ndarray, y: np.ndarray, epochs: int = 20,
            batch_size: int = 64,
            seed: int | np.random.Generator | None = None) -> list[float]:
        """Minibatch Adam training; returns per-epoch mean losses."""
        rng = new_rng(seed)
        history = []
        for _ in range(epochs):
            order = rng.permutation(x.shape[0])
            losses = []
            for start in range(0, x.shape[0], batch_size):
                idx = order[start:start + batch_size]
                loss, grads = self.loss_and_grads(x[idx], y[idx])
                self.apply_step(grads)
                losses.append(loss)
            history.append(float(np.mean(losses)))
        return history

    def predict(self, x: np.ndarray) -> np.ndarray:
        logits, _ = self.forward(x)
        return logits.argmax(axis=1)


class TinyLM(_DenseNet):
    """Embedding + MLP next-token model (the perplexity proxy)."""

    _STATE = _DenseNet._STATE + ("embedding", "_embed_opt")

    def __init__(self, vocab: int, context: int, embed_dim: int,
                 hidden: list[int],
                 seed: int | np.random.Generator | None = None) -> None:
        rng = new_rng(seed)
        super().__init__([context * embed_dim, *hidden, vocab], seed=rng)
        self.vocab = vocab
        self.context = context
        self.embed_dim = embed_dim
        self.embedding = rng.normal(0, 0.1, size=(vocab, embed_dim))
        self._embed_opt = _Adam()

    def _embed(self, contexts: np.ndarray) -> np.ndarray:
        """(n, context) token ids -> (n, context*embed_dim) features."""
        return self.embedding[contexts].reshape(contexts.shape[0], -1)

    def loss_and_grads(self, contexts: np.ndarray, targets: np.ndarray):
        feats = self._embed(contexts)
        logits, acts = self.forward(feats)
        probs = _softmax(logits)
        n = contexts.shape[0]
        loss = -np.mean(np.log(probs[np.arange(n), targets] + 1e-12))
        dlogits = probs.copy()
        dlogits[np.arange(n), targets] -= 1.0
        dlogits /= n
        grads, dfeat = self.backward(acts, dlogits, input_grad=True)
        # Scatter-add into the embedding rows.  bincount starts each bin
        # at 0.0 and adds its terms in token order, as np.add.at does.
        index = (contexts[..., None] * self.embed_dim
                 + np.arange(self.embed_dim)).ravel()
        dembed = np.bincount(index, weights=dfeat.ravel(),
                             minlength=self.embedding.size)
        return loss, grads, dembed.reshape(self.embedding.shape)

    def fit(self, contexts: np.ndarray, targets: np.ndarray,
            epochs: int = 10, batch_size: int = 128,
            seed: int | np.random.Generator | None = None) -> list[float]:
        rng = new_rng(seed)
        history = []
        for _ in range(epochs):
            order = rng.permutation(contexts.shape[0])
            losses = []
            for start in range(0, contexts.shape[0], batch_size):
                idx = order[start:start + batch_size]
                loss, grads, dembed = self.loss_and_grads(contexts[idx],
                                                          targets[idx])
                self.apply_step(grads)
                self._embed_opt.step(self.embedding, dembed)
                losses.append(loss)
            history.append(float(np.mean(losses)))
        return history

    def token_nll(self, contexts: np.ndarray,
                  targets: np.ndarray) -> np.ndarray:
        """Per-token negative log likelihood (perplexity input)."""
        logits, _ = self.forward(self._embed(contexts))
        probs = _softmax(logits)
        n = contexts.shape[0]
        return -np.log(probs[np.arange(n), targets] + 1e-12)
