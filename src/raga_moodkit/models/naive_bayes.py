"""Gaussian naive Bayes with per-class diagonal covariance."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import FinitePositiveFloat
from ..errors import ClassTooSmall
from .base import BaseClassifier
from .linear import softmax


@dataclass(eq=False)
class GaussianNbClassifier(BaseClassifier):
    """Class priors from frequencies; per-feature means and floored variances.

    Posteriors are accumulated in log space and normalized with a
    log-sum-exp, so widely separated classes stay representable.
    """

    family = "gnb"
    var_floor: FinitePositiveFloat = 1e-9

    _arrays = {"theta_": ("C", "F"), "var_": ("C", "F"), "priors_": ("C",)}

    def _fit(self, X, y):
        n_classes = len(self.classes_)
        self.theta_ = np.empty((n_classes, X.shape[1]))
        self.var_ = np.empty((n_classes, X.shape[1]))
        self.priors_ = np.empty(n_classes)
        for i, cls in enumerate(self.classes_):
            rows = X[y == i]
            if rows.shape[0] < 2:
                raise ClassTooSmall(f"class {cls!r} has {rows.shape[0]} row(s); need at least 2")
            self.theta_[i] = rows.mean(axis=0)
            self.var_[i] = np.maximum(rows.var(axis=0), self.var_floor)
            self.priors_[i] = rows.shape[0] / X.shape[0]

    def _scores(self, X):
        delta = X[:, None, :] - self.theta_[None, :, :]
        log_density = -0.5 * (np.log(2.0 * np.pi * self.var_) + delta * delta / self.var_)
        return softmax(np.log(self.priors_) + log_density.sum(axis=2))
