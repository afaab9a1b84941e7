"""K-nearest-neighbour classifier over euclidean, manhattan or hamming distance."""
from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..base import PositiveInt
from ..errors import KTooLarge
from .base import BaseClassifier
from .serialize import Index

Metric = Literal["euclidean", "manhattan", "hamming"]
Weights = Literal["uniform", "distance"]
METRICS = typing.get_args(Metric)
WEIGHTS = typing.get_args(Weights)

#: Query rows per block in ``pairwise_distances``; bounds the
#: (rows, points, features) difference array it builds.
_CHUNK_ROWS = 256


def pairwise_distances(queries, points, metric: Metric) -> np.ndarray:
    """Distance matrix (n_queries, n_points) for one of the supported metrics.

    Hamming on continuous values is the fraction of coordinates that are not
    exactly equal (so it saturates near 1 on real-valued data).
    """
    KnnClassifier._check_params(metric=metric)
    queries = np.asarray(queries, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    out = np.empty((len(queries), len(points)))
    for start in range(0, len(queries), _CHUNK_ROWS):
        delta = queries[start : start + _CHUNK_ROWS, None, :] - points[None, :, :]
        if metric == "euclidean":
            out[start : start + _CHUNK_ROWS] = np.sqrt(np.sum(delta * delta, axis=2))
        elif metric == "manhattan":
            out[start : start + _CHUNK_ROWS] = np.sum(np.abs(delta), axis=2)
        else:
            out[start : start + _CHUNK_ROWS] = np.mean(delta != 0.0, axis=2)
    return out


@dataclass(eq=False)
class KnnClassifier(BaseClassifier):
    """Stores the training set at fit; all work happens at prediction.

    Neighbour selection is stable: equal distances resolve to the earlier
    training row. With ``weights="distance"`` votes are 1/d, and exact
    matches (d = 0) dominate: only the zero-distance neighbours vote, each
    with equal weight.
    """

    family = "knn"
    k: PositiveInt = 5
    metric: Metric = "manhattan"
    weights: Weights = "uniform"

    _arrays = {"X_": ("N", "F"), "y_index_": Index(("N",), 0, "C")}

    def _fit(self, X, y):
        self._check_k(len(X))
        self.X_, self.y_index_ = X, y

    def _decode_state(self, params, sizes):
        super()._decode_state(params, sizes)
        self._check_k(sizes["N"])

    def _check_k(self, n_rows: int) -> None:
        """``k`` neighbours need at least ``k`` stored rows."""
        if self.k > n_rows:
            raise KTooLarge(f"k={self.k} exceeds the {n_rows} training rows")

    def _scores(self, X):
        distances = pairwise_distances(X, self.X_, self.metric)
        nearest = np.argsort(distances, axis=1, kind="stable")[:, : self.k]
        if self.weights == "uniform":
            weights = np.full(nearest.shape, 1.0 / self.k)
        else:
            d = np.take_along_axis(distances, nearest, axis=1)
            exact = d == 0.0
            # a row with an exact match takes the first branch, so the
            # inf and nan the other branch makes there are discarded
            with np.errstate(divide="ignore", invalid="ignore"):
                weights = np.where(
                    exact.any(axis=1, keepdims=True),
                    exact / exact.sum(axis=1, keepdims=True),
                    (1.0 / d) / np.sum(1.0 / d, axis=1, keepdims=True),
                )
        scores = np.zeros((len(X), len(self.classes_)))
        rows = np.broadcast_to(np.arange(len(X))[:, None], nearest.shape)
        np.add.at(scores, (rows, self.y_index_[nearest]), weights)
        return scores
