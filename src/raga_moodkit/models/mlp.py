"""Four-hidden-layer perceptron: ReLU activations, softmax output,
cross-entropy loss, mini-batch gradient descent."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ..base import FinitePositiveFloat, NonNegativeInt, PositiveInt
from ..errors import DivergenceDetected
from .base import BaseClassifier
from .linear import softmax


def _init_layers(sizes, rng):
    """Glorot-style uniform init for weights, zeros for biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def forward(weights, biases, X):
    """Activations per layer; the last entry holds the softmax output."""
    activations = [np.asarray(X, dtype=np.float64)]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = activations[-1] @ w + b
        activations.append(softmax(z) if i == len(weights) - 1 else np.maximum(z, 0.0))
    return activations


def loss_and_grads(weights, biases, X, onehot):
    """Mean cross-entropy plus gradients for every weight matrix and bias."""
    activations = forward(weights, biases, X)
    probs = activations[-1]
    n = X.shape[0]
    loss = -np.sum(onehot * np.log(np.maximum(probs, 1e-300))) / n

    grad_w = [None] * len(weights)
    grad_b = [None] * len(biases)
    delta = (probs - onehot) / n
    for layer in range(len(weights) - 1, -1, -1):
        grad_w[layer] = activations[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (activations[layer] > 0.0)
    return loss, grad_w, grad_b


#: Exactly four hidden layer sizes, each at least one unit.
HiddenSizes = Annotated[
    tuple[int, ...], ("four sizes >= 1", lambda sizes: len(sizes) == 4 and min(sizes) >= 1)
]


@dataclass(eq=False)
class MlpClassifier(BaseClassifier):
    """Fully connected n_features -> h1 -> h2 -> h3 -> h4 -> n_classes net.

    Exactly four hidden layers; batch order is reshuffled every epoch from
    the seeded generator, so training is deterministic given the seed.
    ``epochs=0`` is a hook that leaves the freshly initialized net untrained.
    """

    family = "mlp"
    hidden: HiddenSizes = (256, 128, 64, 32)
    epochs: NonNegativeInt = 100
    batch_size: PositiveInt = 50
    learning_rate: FinitePositiveFloat = 1e-3
    seed: NonNegativeInt = 0

    def _fit(self, X, y):
        onehot = np.eye(len(self.classes_))[y]
        rng = np.random.default_rng(self.seed)
        self.weights_, self.biases_ = _init_layers(
            [X.shape[1], *self.hidden, len(self.classes_)], rng
        )

        n = X.shape[0]
        self.loss_curve_ = []
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(self.epochs):
                order = rng.permutation(n)
                for start in range(0, n, self.batch_size):
                    batch = order[start : start + self.batch_size]
                    _, grad_w, grad_b = loss_and_grads(
                        self.weights_, self.biases_, X[batch], onehot[batch]
                    )
                    for layer in range(len(self.weights_)):
                        self.weights_[layer] -= self.learning_rate * grad_w[layer]
                        self.biases_[layer] -= self.learning_rate * grad_b[layer]
                epoch_loss, _, _ = loss_and_grads(self.weights_, self.biases_, X, onehot)
                if not np.isfinite(epoch_loss):
                    raise DivergenceDetected(f"loss became non-finite at epoch {epoch}")
                self.loss_curve_.append(epoch_loss)

    def _scores(self, X):
        return forward(self.weights_, self.biases_, X)[-1]

    @property
    def _arrays(self) -> dict:
        """One weight matrix and one bias per layer of the chain [F, *hidden, C]."""
        sizes = ["F", *self.hidden, "C"]
        return {"weights_": list(zip(sizes, sizes[1:])), "biases_": [(n,) for n in sizes[1:]]}
