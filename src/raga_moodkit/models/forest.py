"""Random forest: bagged CART trees voting with their leaf distributions."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..base import PositiveInt
from ..errors import ValidationError
from .base import BaseClassifier
from .tree import DecisionTreeClassifier, TreeParams


@dataclass(eq=False)
class RandomForestClassifier(TreeParams, BaseClassifier):
    """Seeded bootstrap resamples (with replacement, size n) feed one tree
    each; scores are the mean of the per-tree leaf class distributions."""

    family = "forest"
    n_estimators: PositiveInt = 100

    def _fit(self, X, y):
        master = np.random.default_rng(self.seed)
        n = X.shape[0]
        tree_params = self.get_params()
        del tree_params["n_estimators"]
        self.trees_ = []
        for _ in range(self.n_estimators):
            boot_seed, tree_seed = master.integers(0, 2**63 - 1, size=2)
            rows = np.random.default_rng(boot_seed).integers(0, n, size=n)
            # every tree's leaf counts span the forest's classes
            tree = DecisionTreeClassifier(**{**tree_params, "seed": int(tree_seed)})
            tree.classes_, tree.n_features_ = self.classes_, self.n_features_
            tree._fit(X[rows], y[rows])
            self.trees_.append(tree)

    def _scores(self, X):
        total = np.zeros((X.shape[0], len(self.classes_)))
        for tree in self.trees_:
            total += tree._scores(X)
        return total / len(self.trees_)

    def _params_record(self) -> dict:
        return {**super()._params_record(), "trees": [DecisionTreeClassifier()._params_record()]}

    def _encode_state(self) -> dict:
        return {"trees": [tree._encode_params() for tree in self.trees_]}

    def _decode_state(self, params: dict, sizes: dict) -> None:
        """Load ``n_estimators`` trees, each taking the same ``F`` features."""
        if len(params["trees"]) != self.n_estimators:
            raise ValidationError(f"{len(params['trees'])} stored trees for n_estimators={self.n_estimators}")
        self.trees_ = []
        for tree_params in params["trees"]:
            tree = DecisionTreeClassifier()
            tree.classes_ = self.classes_
            tree._decode_params(tree_params)
            if sizes.setdefault("F", tree.n_features_) != tree.n_features_:
                raise ValidationError("the stored trees disagree on the feature count")
            self.trees_.append(tree)
