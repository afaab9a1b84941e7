"""Shared classifier contract.

Every family exposes ``fit(X, y)``, ``predict_scores(X)`` and ``predict(X)``.
Scores are one finite value per class, summing to 1 per row; ``predict`` is
the argmax of the scores with ties resolved to the earliest class in
``classes_`` (sorted label order).
"""
from __future__ import annotations

import numpy as np

from ..base import ParamsMixin, as_float_matrix, as_label_array, check_fitted
from ..errors import EmptyData, ValidationError


class BaseClassifier(ParamsMixin):
    family = "base"

    def fit(self, X, y):
        raise NotImplementedError

    def predict_scores(self, X) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "classes_")
        scores = self.predict_scores(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def _check_fit_inputs(self, X, y):
        X = as_float_matrix(X)
        if X.shape[0] == 0:
            raise EmptyData("fit requires at least one row")
        y = as_label_array(y, n_rows=X.shape[0])
        self.classes_ = np.unique(y)
        self.n_features_ = X.shape[1]
        return X, y

    def _check_predict_input(self, X):
        check_fitted(self, "classes_")
        X = as_float_matrix(X)
        if X.shape[1] != self.n_features_:
            raise ValidationError(
                f"model fitted on {self.n_features_} features, got {X.shape[1]}"
            )
        return X

    # serialization; see models.serialize
    def _encode_params(self) -> dict:
        """The constructor parameters plus the family's fitted state."""
        return {**self.get_params(), **self._encode_state()}

    def _decode_params(self, params: dict) -> None:
        self.set_params(**{name: params[name] for name in self._param_types()})
        self._decode_state(params)

    def _encode_state(self) -> dict:
        raise NotImplementedError

    def _decode_state(self, params: dict) -> None:
        raise NotImplementedError
