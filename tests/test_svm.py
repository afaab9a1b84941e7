import itertools
import math

import numpy as np
import pytest

from raga_moodkit.errors import SingleClass, ValidationError
from raga_moodkit.models import RbfSvmClassifier, kkt_violations, rbf_kernel, smo_train_binary
from raga_moodkit.models.svm import _dual_objective, rbf_kernel_matrix


def separable_blobs(rng, n_per_class=20, separation=6.0):
    """Two 2-D clusters far enough apart for a clean margin at gamma=0.1."""
    a = rng.normal(0.0, 0.6, (n_per_class, 2))
    b = rng.normal(0.0, 0.6, (n_per_class, 2)) + separation
    X = np.vstack([a, b])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return X, y


class TestKernel:
    def test_same_point(self):
        assert rbf_kernel([1.0, 2.0], [1.0, 2.0], gamma=0.5) == 1.0

    def test_unit_distance(self):
        assert rbf_kernel([0.0], [1.0], gamma=1.0) == pytest.approx(math.exp(-1))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            assert rbf_kernel(a, b, 0.3) == rbf_kernel(b, a, 0.3)

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 3))
        B = rng.standard_normal((5, 3))
        K = rbf_kernel_matrix(A, B, 0.2)
        for i, j in itertools.product(range(4), range(5)):
            assert K[i, j] == pytest.approx(rbf_kernel(A[i], B[j], 0.2), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            rbf_kernel([1.0], [1.0, 2.0], 1.0)

    def test_bad_gamma(self):
        with pytest.raises(ValidationError):
            rbf_kernel([1.0], [1.0], 0.0)
        with pytest.raises(ValidationError):
            rbf_kernel([1.0], [1.0], math.nan)


class TestSmoBinary:
    @pytest.mark.parametrize("name", ["C", "gamma", "tol"])
    def test_nan_hyperparameter_rejected(self, name):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            smo_train_binary(X, np.array([1.0, -1.0]), **{name: math.nan})

    def test_two_point_analytic_solution(self):
        # alpha* = 1/(1 - K12), b = 0, boundary at the midpoint
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        y = np.array([1.0, -1.0])
        gamma = 0.1
        k12 = math.exp(-gamma * 1.0)
        expected_alpha = 1.0 / (1.0 - k12)
        model = smo_train_binary(X, y, C=100.0, gamma=gamma, tol=1e-6, max_passes=20)
        assert len(model.dual_coef) == 2
        np.testing.assert_allclose(np.abs(model.dual_coef), expected_alpha, rtol=1e-5)
        np.testing.assert_array_equal(np.sign(model.dual_coef), y)
        assert model.bias == pytest.approx(0.0, abs=1e-5)
        midpoint = model.decision_function(np.array([[0.5, 0.0]]))[0]
        assert midpoint == pytest.approx(0.0, abs=1e-6)
        assert model.decision_function(X)[0] > 0 > model.decision_function(X)[1]

    def test_duplicate_point_with_both_labels_hits_bound(self):
        # identical kernel rows: the dual is linear in the shared multiplier,
        # so the optimum sits at alpha = C; verify against a grid oracle
        X = np.array([[2.0, 3.0], [2.0, 3.0]])
        y = np.array([1.0, -1.0])
        C = 4.0
        model = smo_train_binary(X, y, C=C, gamma=0.1, tol=1e-4, max_passes=20)
        gram = rbf_kernel_matrix(X, X, 0.1)
        grid = np.linspace(0.0, C, 401)
        objective = [_dual_objective(np.array([t, t]), y, gram) for t in grid]
        best_t = grid[int(np.argmax(objective))]
        assert best_t == pytest.approx(C)
        np.testing.assert_allclose(np.abs(model.dual_coef), C, atol=1e-9)
        assert abs(np.sum(model.dual_coef)) < 1e-9

    def test_separable_blobs_perfect_and_kkt(self):
        rng = np.random.default_rng(2)
        X, y = separable_blobs(rng)
        model = smo_train_binary(X, y, C=10.0, gamma=0.1, tol=1e-3, max_passes=10, seed=0)
        predictions = np.sign(model.decision_function(X))
        assert np.all(predictions == y)
        assert np.max(kkt_violations(model, X, y)) <= 1e-3
        assert abs(np.sum(model.dual_coef)) <= 1e-6
        np.testing.assert_array_equal(np.sign(model.dual_coef), y[model.support_indices])
        assert np.all(np.abs(model.dual_coef) <= 10.0 + 1e-12)

    def test_objective_non_decreasing_and_consistent(self):
        rng = np.random.default_rng(3)
        X, y = separable_blobs(rng, n_per_class=15)
        model = smo_train_binary(X, y, C=10.0, gamma=0.1, seed=1)
        history = np.array(model.objective_history)
        assert history[0] == 0.0
        assert np.all(np.diff(history) >= -1e-9)
        # running total matches a direct evaluation at the final multipliers
        gram = rbf_kernel_matrix(X, X, 0.1)
        alphas = np.zeros(len(y))
        alphas[model.support_indices] = np.abs(model.dual_coef)
        assert history[-1] == pytest.approx(_dual_objective(alphas, y, gram), abs=1e-6)

    def test_margin_support_vectors_sit_on_margin(self):
        rng = np.random.default_rng(4)
        X, y = separable_blobs(rng)
        tol = 1e-3
        model = smo_train_binary(X, y, C=10.0, gamma=0.1, tol=tol)
        alphas = np.abs(model.dual_coef)
        free = (alphas > 1e-9) & (alphas < 10.0 - 1e-9)
        if free.any():
            values = model.decision_function(model.support_vectors[free])
            np.testing.assert_allclose(values, np.sign(model.dual_coef[free]), atol=tol)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(5)
        X, y = separable_blobs(rng)
        queries = rng.uniform(-2, 8, (40, 2))
        base = np.sign(smo_train_binary(X, y, C=10.0, gamma=0.1).decision_function(queries))
        perm = rng.permutation(len(y))
        shuffled = np.sign(
            smo_train_binary(X[perm], y[perm], C=10.0, gamma=0.1).decision_function(queries)
        )
        np.testing.assert_array_equal(base, shuffled)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            smo_train_binary(np.zeros((3, 2)), np.ones(3))

    def test_bad_labels(self):
        with pytest.raises(ValidationError):
            smo_train_binary(np.zeros((2, 2)), np.array([0.0, 1.0]))


class TestOvo:
    def _blob_data(self, rng, classes, n_per_class=12, spread=0.5, radius=8.0):
        X, y = [], []
        for i, label in enumerate(classes):
            angle = 2 * np.pi * i / len(classes)
            center = radius * np.array([np.cos(angle), np.sin(angle)])
            X.append(rng.normal(0, spread, (n_per_class, 2)) + center)
            y.extend([label] * n_per_class)
        return np.vstack(X), np.array(y)

    def test_six_classes_fifteen_pairs(self):
        rng = np.random.default_rng(6)
        X, y = self._blob_data(rng, list("abcdef"))
        model = RbfSvmClassifier(C=10.0, gamma=0.1).fit(X, y)
        assert len(model.pair_models_) == 15

    def test_two_class_matches_binary(self):
        rng = np.random.default_rng(7)
        X, y = self._blob_data(rng, ["neg", "pos"])
        model = RbfSvmClassifier(C=10.0, gamma=0.1).fit(X, y)
        assert len(model.pair_models_) == 1
        queries = rng.uniform(-9, 9, (30, 2))
        binary = model.pair_models_[(0, 1)]
        decision = binary.decision_function(queries)
        scores = model.predict_scores(queries)
        # score ordering matches the sign of the decision function
        first_class_wins = scores[:, 0] > scores[:, 1]
        np.testing.assert_array_equal(first_class_wins, decision > 0)

    def test_pairs_independent_of_other_classes(self):
        rng = np.random.default_rng(8)
        X, y = self._blob_data(rng, ["a", "b", "c"])
        model = RbfSvmClassifier(C=10.0, gamma=0.1, seed=3).fit(X, y)
        # permute only class c's rows; the (a, b) machine must be unchanged
        c_rows = np.flatnonzero(y == "c")
        perm = np.arange(len(y))
        perm[c_rows] = c_rows[::-1]
        model2 = RbfSvmClassifier(C=10.0, gamma=0.1, seed=3).fit(X[perm], y[perm])
        ab1, ab2 = model.pair_models_[(0, 1)], model2.pair_models_[(0, 1)]
        np.testing.assert_array_equal(ab1.support_vectors, ab2.support_vectors)
        np.testing.assert_allclose(ab1.dual_coef, ab2.dual_coef)
        assert ab1.bias == ab2.bias

    def test_deep_inside_region_wins_all_votes(self):
        rng = np.random.default_rng(9)
        classes = list("abcdef")
        X, y = self._blob_data(rng, classes)
        model = RbfSvmClassifier(C=10.0, gamma=0.1).fit(X, y)
        for i, label in enumerate(classes):
            center = 8.0 * np.array([[np.cos(2 * np.pi * i / 6), np.sin(2 * np.pi * i / 6)]])
            votes = np.zeros(6)
            for (a, b), pair in model.pair_models_.items():
                value = pair.decision_function(center)[0]
                votes[a if value >= 0 else b] += 1
            assert votes[i] == 5
            assert model.predict(center)[0] == label

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(10)
        X, y = self._blob_data(rng, ["a", "b", "c", "d"])
        model = RbfSvmClassifier(C=10.0, gamma=0.1).fit(X, y)
        scores = model.predict_scores(rng.uniform(-9, 9, (25, 2)))
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_equals_score_argmax(self):
        rng = np.random.default_rng(11)
        X, y = self._blob_data(rng, ["a", "b", "c"], spread=2.0)
        model = RbfSvmClassifier(C=1.0, gamma=0.05).fit(X, y)
        queries = rng.uniform(-9, 9, (50, 2))
        scores = model.predict_scores(queries)
        np.testing.assert_array_equal(
            model.predict(queries), model.classes_[np.argmax(scores, axis=1)]
        )

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            RbfSvmClassifier().fit(np.zeros((4, 2)), ["a"] * 4)
