"""Multinomial softmax regression trained by full-batch gradient descent."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import FinitePositiveFloat, NonNegativeInt
from ..errors import DivergenceDetected
from .base import BaseClassifier


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _loss_and_grad(weights, X_bias, onehot):
    """Mean cross-entropy and its gradient w.r.t. the (F+1, C) weight matrix."""
    probs = softmax(X_bias @ weights)
    n = X_bias.shape[0]
    loss = -np.sum(onehot * np.log(np.maximum(probs, 1e-300))) / n
    grad = X_bias.T @ (probs - onehot) / n
    return loss, grad


@dataclass(eq=False)
class SoftmaxRegression(BaseClassifier):
    """Deterministic zero-initialized weights; fixed learning rate.

    ``max_iter=0`` is allowed as a hook: the untrained model scores every
    class uniformly.
    """

    family = "logreg"
    max_iter: NonNegativeInt = 1000
    learning_rate: FinitePositiveFloat = 0.01

    _arrays = {"weights_": ("F+1", "C")}

    def _fit(self, X, y):
        n, f = X.shape
        c = len(self.classes_)
        X_bias = np.hstack([X, np.ones((n, 1))])
        onehot = np.eye(c)[y]

        self.weights_ = np.zeros((f + 1, c))
        self.loss_curve_ = []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.max_iter):
                loss, grad = _loss_and_grad(self.weights_, X_bias, onehot)
                if not np.isfinite(loss):
                    raise DivergenceDetected(
                        f"loss became non-finite after {len(self.loss_curve_)} steps"
                    )
                self.loss_curve_.append(loss)
                self.weights_ -= self.learning_rate * grad
            final_loss, _ = _loss_and_grad(self.weights_, X_bias, onehot)
        if not np.isfinite(final_loss):
            raise DivergenceDetected("loss became non-finite at the final iterate")
        self.loss_curve_.append(final_loss)

    def _scores(self, X):
        X_bias = np.hstack([X, np.ones((X.shape[0], 1))])
        return softmax(X_bias @ self.weights_)
