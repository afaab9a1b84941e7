"""CART decision tree with gini or entropy impurity."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from ..base import NonNegativeInt, ParamsMixin, PositiveInt
from ..errors import ValidationError
from .base import BaseClassifier
from .serialize import Index

Criterion = Literal["gini", "entropy"]

_LEAF = -1


def _impurity_rows(counts: np.ndarray, criterion: Criterion) -> np.ndarray:
    """Impurity of each row of a (k, n_classes) count matrix: gini, or
    Shannon entropy in bits."""
    totals = counts.sum(axis=1, keepdims=True)
    safe = np.maximum(totals, 1.0)
    p = counts / safe
    if criterion == "gini":
        return 1.0 - np.sum(p * p, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(p > 0, np.log2(np.maximum(p, 1e-300)), 0.0)
    return -np.sum(p * logs, axis=1)


@dataclass(eq=False)
class TreeParams(ParamsMixin):
    """How a tree grows; a forest takes the same parameters for its trees."""

    criterion: Criterion = "gini"
    max_depth: Annotated[int | None, ("None or >= 1", lambda v: v is None or v >= 1)] = None
    max_features: Annotated[float, ("in (0, 1]", lambda v: 0 < v <= 1)] = 1.0
    min_samples_leaf: PositiveInt = 1
    min_samples_split: Annotated[int, (">= 2", lambda v: v >= 2)] = 2
    seed: NonNegativeInt = 0


class DecisionTreeClassifier(TreeParams, BaseClassifier):
    """Greedy best-split CART.

    At each node ``ceil(max_features * n_features)`` candidate features are
    sampled without replacement (seeded); candidate thresholds are midpoints
    of consecutive distinct sorted values. The split minimizing the weighted
    child impurity wins, ties going to the lowest feature index and then the
    lowest threshold. Rows with value <= threshold go left.
    """

    family = "tree"
    _arrays = {"feature_": Index(("N",), _LEAF, "F"), "threshold_": ("N",), "left_": Index(("N",), _LEAF, "N"),
               "right_": Index(("N",), _LEAF, "N"), "counts_": ("N", "C")}

    def _fit(self, X, y):
        rng = np.random.default_rng(self.seed)
        n_sampled = max(1, int(np.ceil(self.max_features * X.shape[1])))

        features: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        counts: list[np.ndarray] = []

        def new_node():
            features.append(_LEAF)
            thresholds.append(0.0)
            lefts.append(_LEAF)
            rights.append(_LEAF)
            counts.append(np.zeros(len(self.classes_)))
            return len(features) - 1

        def build(rows: np.ndarray, depth: int) -> int:
            node = new_node()
            node_counts = np.bincount(y[rows], minlength=len(self.classes_)).astype(np.float64)
            counts[node] = node_counts
            n = len(rows)
            pure = np.count_nonzero(node_counts) <= 1
            if (
                pure
                or n < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
            ):
                return node
            candidates = np.sort(rng.choice(X.shape[1], size=n_sampled, replace=False))
            split = self._best_split(X, y, rows, candidates)
            if split is None:
                return node
            feature, threshold = split
            left_rows = rows[X[rows, feature] <= threshold]
            right_rows = rows[X[rows, feature] > threshold]
            features[node] = feature
            thresholds[node] = threshold
            lefts[node] = build(left_rows, depth + 1)
            rights[node] = build(right_rows, depth + 1)
            return node

        build(np.arange(X.shape[0]), depth=0)
        self.feature_ = np.asarray(features, dtype=np.int64)
        self.threshold_ = np.asarray(thresholds)
        self.left_ = np.asarray(lefts, dtype=np.int64)
        self.right_ = np.asarray(rights, dtype=np.int64)
        self.counts_ = np.vstack(counts)

    def _best_split(self, X, y_index, rows, candidates):
        n = len(rows)
        n_classes = len(self.classes_)
        best = None  # (impurity, feature, threshold)
        for feature in candidates:
            values = X[rows, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            sorted_labels = y_index[rows][order]
            boundaries = np.flatnonzero(sorted_values[:-1] != sorted_values[1:])
            if boundaries.size == 0:
                continue
            onehot = np.zeros((n, n_classes))
            onehot[np.arange(n), sorted_labels] = 1.0
            prefix = np.cumsum(onehot, axis=0)
            left_counts = prefix[boundaries]
            right_counts = prefix[-1] - left_counts
            n_left = boundaries + 1
            n_right = n - n_left
            valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
            if not valid.any():
                continue
            weighted = (
                n_left * _impurity_rows(left_counts, self.criterion)
                + n_right * _impurity_rows(right_counts, self.criterion)
            ) / n
            weighted = np.where(valid, weighted, np.inf)
            pick = int(np.argmin(weighted))
            if not np.isfinite(weighted[pick]):
                continue
            threshold = 0.5 * (sorted_values[boundaries[pick]] + sorted_values[boundaries[pick] + 1])
            if best is None or weighted[pick] < best[0]:
                best = (weighted[pick], int(feature), float(threshold))
        if best is None:
            return None
        return best[1], best[2]

    def _leaf_for(self, X) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature_[node] != _LEAF
        while active.any():
            idx = np.flatnonzero(active)
            current = node[idx]
            go_left = X[idx, self.feature_[current]] <= self.threshold_[current]
            node[idx] = np.where(go_left, self.left_[current], self.right_[current])
            active = self.feature_[node] != _LEAF
        return node

    def _scores(self, X):
        leaf_counts = self.counts_[self._leaf_for(X)]
        return leaf_counts / leaf_counts.sum(axis=1, keepdims=True)

    def _params_record(self) -> dict:
        return {**super()._params_record(), "n_features": NonNegativeInt}

    def _encode_state(self) -> dict:
        return {**super()._encode_state(), "n_features": self.n_features_}

    def _decode_state(self, params: dict, sizes: dict) -> None:
        """Bind ``F`` to the stored feature count, load the node arrays and check
        that they form a tree: an internal node's children are later nodes, so
        every path ends at a leaf; class counts are non-negative, summing > 0."""
        sizes["F"] = params["n_features"]
        super()._decode_state(params, sizes)
        internal = np.flatnonzero(self.feature_ != _LEAF)
        children = np.concatenate([self.left_[internal], self.right_[internal]])
        if not (len(self.counts_) and (children > np.tile(internal, 2)).all()
                and (self.counts_ >= 0).all() and (self.counts_.sum(axis=1) > 0).all()):
            raise ValidationError("stored tree nodes do not form a tree with class counts at every node")
