import math

import numpy as np
import pytest

from raga_moodkit.errors import ValidationError
from raga_moodkit.experiments import accuracy
from raga_moodkit.models import RandomForestClassifier
from raga_moodkit.models.tree import DecisionTreeClassifier
from raga_moodkit.models.tree import _impurity_rows


def gini(counts):
    return _impurity_rows(np.array([counts], dtype=np.float64), "gini")[0]


def entropy(counts):
    return _impurity_rows(np.array([counts], dtype=np.float64), "entropy")[0]


class TestImpurity:
    """The row-wise impurities ``fit`` scores its candidate splits with."""

    def test_fifty_fifty(self):
        assert gini([10, 10]) == pytest.approx(0.5)
        assert entropy([10, 10]) == pytest.approx(1.0)  # one bit

    def test_pure(self):
        assert gini([7, 0]) == 0.0
        assert entropy([7, 0]) == 0.0

    def test_three_way(self):
        assert gini([1, 1, 1]) == pytest.approx(2.0 / 3.0)
        assert entropy([1, 1, 1]) == pytest.approx(math.log2(3))

    def test_rows_are_independent(self):
        counts = np.array([[10.0, 10.0], [7.0, 0.0]])
        np.testing.assert_allclose(_impurity_rows(counts, "gini"), [0.5, 0.0])
        np.testing.assert_allclose(_impurity_rows(counts, "entropy"), [1.0, 0.0])


class TestDecisionTree:
    def test_hand_checked_split(self):
        # candidates 0.5, 1.5, 2.5; only 1.5 yields two pure children
        # (weighted gini: 0.5 -> (1*0 + 3*4/9)/4 = 1/3, 1.5 -> 0, 2.5 -> 1/3)
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array(["A", "A", "B", "B"])
        for criterion in ("gini", "entropy"):
            tree = DecisionTreeClassifier(criterion=criterion).fit(X, y)
            assert tree.feature_[0] == 0
            assert tree.threshold_[0] == pytest.approx(1.5)
            assert len(tree.feature_) == 3
            assert accuracy(tree.predict(X), y) == 1.0

    def test_pure_node_is_leaf(self):
        X = np.random.default_rng(0).standard_normal((10, 3))
        tree = DecisionTreeClassifier().fit(X, ["same"] * 10)
        assert len(tree.feature_) == 1

    def test_memorizes_distinct_points(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 5))
        y = rng.choice(["a", "b", "c"], 40)
        tree = DecisionTreeClassifier().fit(X, y)
        assert accuracy(tree.predict(X), y) == 1.0

    def test_max_depth_limits(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((100, 3))
        y = rng.choice(["a", "b"], 100)
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert len(stump.feature_) <= 3

    def test_min_samples_leaf_shrinks_tree(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 4))
        y = rng.choice(["a", "b"], 60)
        full = DecisionTreeClassifier(min_samples_leaf=1).fit(X, y)
        pruned = DecisionTreeClassifier(min_samples_leaf=5).fit(X, y)
        assert len(pruned.feature_) <= len(full.feature_)

    def test_leaf_histograms_sum_to_rows(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 3))
        y = rng.choice(["a", "b", "c"], 50)
        tree = DecisionTreeClassifier(min_samples_leaf=3).fit(X, y)
        leaves = tree.feature_ == -1
        assert tree.counts_[leaves].sum() == 50  # every row reaches one leaf
        assert tree.counts_[0].sum() == 50  # root sees everything

    def test_feature_subsampling_seeded(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 10))
        y = rng.choice(["a", "b"], 80)
        one = DecisionTreeClassifier(max_features=0.3, seed=9).fit(X, y)
        two = DecisionTreeClassifier(max_features=0.3, seed=9).fit(X, y)
        np.testing.assert_array_equal(one.feature_, two.feature_)
        np.testing.assert_array_equal(one.threshold_, two.threshold_)

    def test_scores_follow_leaf_distribution(self):
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        y = np.array(["a", "a", "b", "b"])
        tree = DecisionTreeClassifier(min_samples_leaf=3).fit(X, y)
        if len(tree.feature_) == 1:  # min leaf blocks every split
            scores = tree.predict_scores(np.array([[0.0]]))[0]
            np.testing.assert_allclose(scores, [0.5, 0.5])

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(criterion="mse").fit(np.zeros((4, 2)), ["a", "a", "b", "b"])
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(max_features=0.0).fit(np.zeros((4, 2)), ["a", "a", "b", "b"])
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(max_depth=0).fit(np.zeros((4, 2)), ["a", "a", "b", "b"])


class TestRandomForest:
    def test_same_seed_same_forest(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 4))
        y = rng.choice(["a", "b"], 40)
        queries = rng.standard_normal((10, 4))
        one = RandomForestClassifier(n_estimators=10, seed=3).fit(X, y)
        two = RandomForestClassifier(n_estimators=10, seed=3).fit(X, y)
        np.testing.assert_array_equal(one.predict_scores(queries), two.predict_scores(queries))

    def test_vote_fractions_sum_to_one(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 4))
        y = rng.choice(["a", "b", "c"], 40)
        forest = RandomForestClassifier(n_estimators=7).fit(X, y)
        scores = forest.predict_scores(rng.standard_normal((12, 4)))
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)

    def test_prediction_invariant_to_tree_order(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 3))
        y = rng.choice(["a", "b"], 40)
        forest = RandomForestClassifier(n_estimators=9, seed=1).fit(X, y)
        queries = rng.standard_normal((15, 3))
        base = forest.predict_scores(queries)
        forest.trees_ = forest.trees_[::-1]
        np.testing.assert_allclose(forest.predict_scores(queries), base, atol=1e-12)

    def test_vote_variance_shrinks_with_more_trees(self):
        # across seeds, a bigger ensemble scores a fixed query more stably
        # (tolerance: strictly smaller mean variance, 10 seeds, 5 vs 50 trees)
        rng = np.random.default_rng(10)
        X = rng.standard_normal((60, 4))
        y = rng.choice(["a", "b"], 60)
        query = rng.standard_normal((1, 4))

        def variance(n_estimators):
            scores = [
                RandomForestClassifier(n_estimators=n_estimators, seed=s)
                .fit(X, y)
                .predict_scores(query)[0, 0]
                for s in range(10)
            ]
            return np.var(scores)

        assert variance(50) < variance(5)

    def test_class_alignment_under_bootstrap(self):
        # a bootstrap sample may miss a class; leaf histograms must still
        # cover the full forest class list
        X = np.vstack([np.zeros((2, 2)), np.ones((28, 2))])
        y = np.array(["rare"] * 2 + ["common"] * 28)
        forest = RandomForestClassifier(n_estimators=20, seed=0).fit(X, y)
        scores = forest.predict_scores(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert scores.shape == (2, 2)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0)

    def test_needs_one_estimator(self):
        with pytest.raises(ValidationError):
            RandomForestClassifier(n_estimators=0).fit(np.zeros((4, 2)), ["a", "a", "b", "b"])
