"""Classifier families behind one contract, stated in models.base."""
from __future__ import annotations

from ..errors import ValidationError
from .base import BaseClassifier
from .forest import RandomForestClassifier
from .linear import SoftmaxRegression
from .mlp import MlpClassifier
from .naive_bayes import GaussianNbClassifier
from .neighbors import KnnClassifier
from .svm import RbfSvmClassifier

#: Family tag -> class, in canonical family order (used for tie-breaking).
FAMILIES = {
    "knn": KnnClassifier,
    "gnb": GaussianNbClassifier,
    "logreg": SoftmaxRegression,
    "svm": RbfSvmClassifier,
    "forest": RandomForestClassifier,
    "mlp": MlpClassifier,
}

FAMILY_ORDER = tuple(FAMILIES)


def make_classifier(family: str, **params) -> BaseClassifier:
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}; expected one of {FAMILY_ORDER}")
    return FAMILIES[family]().set_params(**params)
