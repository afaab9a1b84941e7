"""Shared classifier contract.

Every family exposes ``fit(X, y)``, ``predict_scores(X)`` and ``predict(X)``.
Scores are one finite value per class, summing to 1 per row; ``predict`` is
the argmax of the scores with ties resolved to the earliest class in
``classes_`` (sorted label order).

The base class checks the rows of every ``fit`` and ``predict_scores`` call
once; a family implements ``_fit`` and ``_scores`` on the checked arrays.
"""
from __future__ import annotations

import numpy as np

from ..base import ParamsMixin, as_float_matrix, as_label_array, check_fitted
from ..errors import ValidationError
from .serialize import ARRAY_RECORD, bind_array, encode_array


class BaseClassifier(ParamsMixin):
    family = "base"
    #: Fitted arrays a bundle saves, by attribute (stored without the trailing
    #: underscore), with their layout: a shape in ``C`` classes, ``F`` features
    #: and ``N`` (a length shared within the family's state), or an ``Index``
    #: of whole numbers in a range, or a list of shapes; see models.serialize.
    _arrays = {}

    def fit(self, X, y):
        X = as_float_matrix(X)
        if X.shape[0] == 0:
            raise ValidationError("fit requires at least one row")
        y = as_label_array(y, n_rows=X.shape[0])
        self.classes_, y_index = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self._fit(X, y_index)
        return self

    def predict_scores(self, X) -> np.ndarray:
        check_fitted(self, "classes_")
        X = as_float_matrix(X)
        if X.shape[1] != self.n_features_:
            raise ValidationError(f"model fitted on {self.n_features_} features, got {X.shape[1]}")
        return self._scores(X)

    def predict(self, X) -> np.ndarray:
        scores = self.predict_scores(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        """Fit on a finite float64 matrix and each row's index into
        ``classes_``; ``classes_`` and ``n_features_`` are already set."""
        raise NotImplementedError

    def _scores(self, X: np.ndarray) -> np.ndarray:
        """Class scores of a finite float64 matrix of ``n_features_`` columns."""
        raise NotImplementedError

    # serialization; see models.serialize
    def _encode_params(self) -> dict:
        """The constructor parameters plus the family's fitted state."""
        return {**self.get_params(), **self._encode_state()}

    def _params_record(self) -> dict:
        """The record ``_encode_params`` writes: each constructor parameter's annotation, then the fitted state."""
        return {**self._param_types(), **{name[:-1]: [ARRAY_RECORD] if isinstance(layout, list) else ARRAY_RECORD
                                          for name, layout in self._arrays.items()}}

    def _decode_params(self, params: dict) -> None:
        """Load ``params`` that passed ``_params_record``; no value is checked again."""
        self._set_checked({name: params[name] for name in self._param_types()})
        sizes = {"C": len(self.classes_)}
        self._decode_state(params, sizes)
        self.n_features_ = sizes["F"]

    def _encode_state(self) -> dict:
        return {name[:-1]: [encode_array(a) for a in getattr(self, name)] if isinstance(layout, list)
                else encode_array(getattr(self, name)) for name, layout in self._arrays.items()}

    def _decode_state(self, params: dict, sizes: dict) -> None:
        """Load the listed arrays, each checked against its layout in ``sizes``."""
        for name, layout in self._arrays.items():
            setattr(self, name, bind_array(name[:-1], params[name[:-1]], layout, sizes))
