"""KNN, Gaussian naive Bayes and softmax regression, and the call checks that
every family shares."""
import math

import numpy as np
import pytest

from raga_moodkit.base import as_float_matrix
from raga_moodkit.errors import (
    ClassTooSmall,
    DivergenceDetected,
    EmptyData,
    KTooLarge,
    NotFitted,
    ValidationError,
)
from raga_moodkit.experiments import accuracy
from raga_moodkit.models import (
    GaussianNbClassifier,
    KnnClassifier,
    MlpClassifier,
    RandomForestClassifier,
    RbfSvmClassifier,
    SoftmaxRegression,
)
from raga_moodkit.models import base as models_base
from raga_moodkit.models.linear import _loss_and_grad
from raga_moodkit.models.neighbors import METRICS, WEIGHTS
from raga_moodkit.models.tree import DecisionTreeClassifier


def brute_force_knn(X_train, y_train, query, k, metric, weights, classes):
    """Independent exhaustive scan with pure-python selection."""
    distances = []
    for i, row in enumerate(X_train):
        if metric == "euclidean":
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(row, query)))
        elif metric == "manhattan":
            d = sum(abs(a - b) for a, b in zip(row, query))
        else:
            d = sum(1 for a, b in zip(row, query) if a != b) / len(query)
        distances.append((d, i))
    distances.sort(key=lambda pair: (pair[0], pair[1]))
    chosen = distances[:k]
    scores = {c: 0.0 for c in classes}
    zero = [(d, i) for d, i in chosen if d == 0.0]
    if weights == "uniform":
        for _, i in chosen:
            scores[y_train[i]] += 1.0 / k
    elif zero:
        for _, i in zero:
            scores[y_train[i]] += 1.0 / len(zero)
    else:
        total = sum(1.0 / d for d, _ in chosen)
        for d, i in chosen:
            scores[y_train[i]] += (1.0 / d) / total
    ordered = [scores[c] for c in classes]
    best = classes[int(np.argmax(ordered))]
    return best, ordered


class TestKnn:
    def test_k1_self_label(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 3))
        y = rng.choice(["a", "b", "c"], 20)
        model = KnnClassifier(k=1).fit(X, y)
        np.testing.assert_array_equal(model.predict(X), y)

    def test_k_equals_n_gives_majority(self):
        X = np.arange(10, dtype=np.float64).reshape(-1, 1)
        y = np.array(["a"] * 6 + ["b"] * 4)
        model = KnnClassifier(k=10, weights="uniform").fit(X, y)
        queries = np.array([[-100.0], [3.0], [100.0]])
        assert list(model.predict(queries)) == ["a", "a", "a"]

    def test_matches_oracle_2d(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 2))
        y = rng.choice(["a", "b"], 20)
        model = KnnClassifier(k=3, metric="manhattan").fit(X, y)
        queries = rng.standard_normal((15, 2))
        predictions = model.predict(queries)
        classes = list(model.classes_)
        for q, predicted in zip(queries, predictions):
            expected, _ = brute_force_knn(X, y, q, 3, "manhattan", "uniform", classes)
            assert predicted == expected

    def test_distance_weight_exact_match_dominates(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        y = np.array(["a", "b", "b"])
        model = KnnClassifier(k=3, metric="euclidean", weights="distance").fit(X, y)
        scores = model.predict_scores(np.array([[0.0, 0.0]]))[0]
        assert scores[list(model.classes_).index("a")] == pytest.approx(1.0)

    def test_uniform_tie_breaks_to_first_class(self):
        X = np.array([[0.0], [2.0]])
        y = np.array(["b", "a"])
        model = KnnClassifier(k=2, weights="uniform").fit(X, y)
        scores = model.predict_scores(np.array([[1.0]]))[0]
        np.testing.assert_allclose(scores, [0.5, 0.5])
        assert model.predict(np.array([[1.0]]))[0] == "a"  # first in sorted order

    def test_hamming_extremes(self):
        from raga_moodkit.models.neighbors import pairwise_distances

        a = np.array([[1.0, 2.0, 3.0]])
        assert pairwise_distances(a, a, "hamming")[0, 0] == 0.0
        b = np.array([[4.0, 5.0, 6.0]])
        assert pairwise_distances(a, b, "hamming")[0, 0] == 1.0

    def test_batch_scores_equal_a_per_row_loop(self):
        # reference: score each query row on its own, as the loop this
        # replaced did; the arithmetic is unchanged, so bits must match
        from raga_moodkit.models.neighbors import pairwise_distances

        def loop_scores(model, queries):
            distances = pairwise_distances(queries, model.X_, model.metric)
            scores = np.zeros((len(queries), len(model.classes_)))
            for row in range(len(queries)):
                idx = np.argsort(distances[row], kind="stable")[: model.k]
                d = distances[row, idx]
                if model.weights == "uniform":
                    weights = np.full(model.k, 1.0 / model.k)
                elif (d == 0.0).any():
                    weights = (d == 0.0) / np.sum(d == 0.0)
                else:
                    weights = (1.0 / d) / np.sum(1.0 / d)
                np.add.at(scores[row], model.y_index_[idx], weights)
            return scores

        rng = np.random.default_rng(11)
        X = rng.standard_normal((60, 5)).round(1)
        y = rng.choice(["x", "y", "z"], 60)
        X[7] = X[8]  # a query equal to X[7] has two exact matches
        # one batch mixing rows with exact matches and rows without
        queries = np.vstack([X[[0, 7, 7, 30]], X[:2] + 0.05, rng.standard_normal((6, 5))])
        for metric in METRICS:
            for weights in WEIGHTS:
                for k in (1, 4, 9):
                    model = KnnClassifier(k=k, metric=metric, weights=weights).fit(X, y)
                    np.testing.assert_array_equal(model.predict_scores(queries), loop_scores(model, queries))

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            KnnClassifier(k=5).fit(np.zeros((3, 2)), ["a", "b", "a"])

    def test_bad_k(self):
        with pytest.raises(ValidationError):
            KnnClassifier(k=0).fit(np.zeros((3, 2)), ["a", "b", "a"])

    def test_bad_metric(self):
        with pytest.raises(ValidationError):
            KnnClassifier(metric="cosine").fit(np.zeros((3, 2)), ["a", "b", "a"])

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4))
        y = rng.choice(["x", "y", "z"], 30)
        for metric in METRICS:
            for weights in WEIGHTS:
                model = KnnClassifier(k=7, metric=metric, weights=weights).fit(X, y)
                scores = model.predict_scores(rng.standard_normal((5, 4)))
                np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)

    def test_not_fitted(self):
        with pytest.raises(NotFitted):
            KnnClassifier().predict(np.zeros((1, 2)))


class TestGaussianNb:
    def test_well_separated_classes(self):
        rng = np.random.default_rng(3)
        X = np.concatenate([rng.normal(0, 1, 100), rng.normal(10, 1, 100)]).reshape(-1, 1)
        y = np.array(["near"] * 100 + ["far"] * 100)
        model = GaussianNbClassifier().fit(X, y)
        scores = model.predict_scores(np.array([[0.0]]))[0]
        assert scores[list(model.classes_).index("near")] > 0.999

    def test_midpoint_symmetry(self):
        X = np.array([[-1.0], [-2.0], [-3.0], [1.0], [2.0], [3.0]])
        y = np.array(["neg"] * 3 + ["pos"] * 3)
        model = GaussianNbClassifier().fit(X, y)
        scores = model.predict_scores(np.array([[0.0]]))[0]
        np.testing.assert_allclose(scores, [0.5, 0.5], atol=1e-9)

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 5))
        y = rng.choice(["a", "b", "c"], 60)
        model = GaussianNbClassifier().fit(X, y)
        scores = model.predict_scores(rng.standard_normal((20, 5)))
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)

    def test_log_space_matches_direct_space(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 2))
        y = rng.choice(["a", "b"], 40)
        model = GaussianNbClassifier().fit(X, y)
        queries = rng.standard_normal((10, 2))
        # the posterior straight from the fitted Gaussians; representable
        # here without logs: small dimension
        density = np.exp(-0.5 * (queries[:, None, :] - model.theta_) ** 2 / model.var_)
        joint = model.priors_ * np.prod(density / np.sqrt(2.0 * np.pi * model.var_), axis=2)
        expected = joint / joint.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(model.predict_scores(queries), expected, atol=1e-12)

    def test_variance_floor_on_constant_feature(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 5.0], [1.0, 6.0]])
        y = np.array(["a", "a", "b", "b"])
        model = GaussianNbClassifier().fit(X, y)
        assert np.all(model.var_ >= 1e-9)
        assert np.all(np.isfinite(model.predict_scores(np.array([[1.0, 3.0]]))))

    @pytest.mark.parametrize("var_floor", [0.0, -1e-9, float("nan")])
    def test_var_floor_must_be_positive(self, var_floor):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 5.0], [1.0, 6.0]])
        with pytest.raises(ValidationError):
            GaussianNbClassifier(var_floor=var_floor).fit(X, ["a", "a", "b", "b"])

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            GaussianNbClassifier().fit(np.zeros((3, 2)), ["a", "a", "b"])

    def test_priors_from_frequencies(self):
        X = np.vstack([np.random.default_rng(6).standard_normal((9, 1)),
                       np.random.default_rng(7).standard_normal((3, 1)) + 50])
        y = np.array(["common"] * 9 + ["rare"] * 3)
        model = GaussianNbClassifier().fit(X, y)
        assert model.priors_[list(model.classes_).index("common")] == pytest.approx(0.75)


def central_difference_grad(loss_fn, weights, step=1e-5):
    grad = np.zeros_like(weights)
    flat = weights.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = loss_fn()
        flat[i] = original - step
        down = loss_fn()
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * step)
    return grad


class TestSoftmaxRegression:
    def test_separable_data_perfect_training_accuracy(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(-3, 0.5, (30, 2)), rng.normal(3, 0.5, (30, 2))])
        y = np.array(["lo"] * 30 + ["hi"] * 30)
        model = SoftmaxRegression(max_iter=500, learning_rate=0.5).fit(X, y)
        assert accuracy(model.predict(X), y) == 1.0

    def test_zero_iterations_uniform(self):
        X = np.random.default_rng(9).standard_normal((12, 4))
        y = np.array(["a", "b", "c"] * 4)
        model = SoftmaxRegression(max_iter=0).fit(X, y)
        scores = model.predict_scores(X)
        np.testing.assert_allclose(scores, 1.0 / 3.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((9, 3))
        y = np.array(["a", "b", "c"] * 3)
        classes = np.unique(y)
        X_bias = np.hstack([X, np.ones((9, 1))])
        onehot = (y[:, None] == classes[None, :]).astype(float)
        weights = rng.standard_normal((4, 3)) * 0.5

        _, analytic = _loss_and_grad(weights, X_bias, onehot)
        numeric = central_difference_grad(
            lambda: _loss_and_grad(weights, X_bias, onehot)[0], weights
        )
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-6

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((40, 5))
        y = rng.choice(["a", "b"], 40)
        model = SoftmaxRegression(max_iter=200, learning_rate=1e-3).fit(X, y)
        curve = np.array(model.loss_curve_)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_divergence_detected(self):
        X = np.array([[1e150, 0.0], [0.0, 1e150], [1e150, 1e150], [0.0, 0.0]])
        y = np.array(["a", "b", "a", "b"])
        with pytest.raises(DivergenceDetected):
            SoftmaxRegression(max_iter=50, learning_rate=1e10).fit(X, y)

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            SoftmaxRegression().fit(np.empty((0, 3)), [])

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((30, 4))
        y = rng.choice(["a", "b", "c"], 30)
        model = SoftmaxRegression(max_iter=50).fit(X, y)
        scores = model.predict_scores(rng.standard_normal((10, 4)))
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)


class TestContract:
    """argmax(predict_scores) == predict across families, tie rule fixed."""

    def test_argmax_consistency(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((40, 4))
        y = rng.choice(["a", "b", "c"], 40)
        queries = rng.standard_normal((25, 4))
        models = [
            KnnClassifier(k=5),
            GaussianNbClassifier(),
            SoftmaxRegression(max_iter=30),
        ]
        for model in models:
            model.fit(X, y)
            scores = model.predict_scores(queries)
            np.testing.assert_array_equal(
                model.predict(queries), model.classes_[np.argmax(scores, axis=1)]
            )

    def test_get_set_params(self):
        model = KnnClassifier(k=3, metric="euclidean")
        assert model.get_params() == {"k": 3, "metric": "euclidean", "weights": "uniform"}
        model.set_params(k=7)
        assert model.k == 7
        with pytest.raises(ValidationError):
            model.set_params(bogus=1)


#: Each family, and the forest's tree, at settings that fit quickly.
QUICK_MODELS = {
    "knn": lambda: KnnClassifier(k=3),
    "gnb": GaussianNbClassifier,
    "logreg": lambda: SoftmaxRegression(max_iter=5),
    "svm": RbfSvmClassifier,
    "forest": lambda: RandomForestClassifier(n_estimators=5),
    "mlp": lambda: MlpClassifier(hidden=(4, 4, 4, 4), epochs=2),
    "tree": DecisionTreeClassifier,
}


@pytest.mark.parametrize("method", ["fit", "predict_scores"])
@pytest.mark.parametrize("family", list(QUICK_MODELS))
def test_rows_are_checked_once_per_call(family, method, monkeypatch):
    # the base class checks a call's rows once: a forest's trees and an SVM's
    # pair machines take them as checked
    rng = np.random.default_rng(14)
    X = rng.standard_normal((24, 3))
    y = np.repeat(["a", "b", "c"], 8)
    checked = []

    def counting(rows, name="X"):
        checked.append(len(rows))
        return as_float_matrix(rows, name)

    model = QUICK_MODELS[family]()
    if method == "predict_scores":
        model.fit(X, y)
    monkeypatch.setattr(models_base, "as_float_matrix", counting)
    if method == "fit":
        model.fit(X, y)
        assert checked == [24]
    else:
        model.predict_scores(rng.standard_normal((7, 3)))
        assert checked == [7]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method", ["fit", "predict_scores"])
@pytest.mark.parametrize("family", list(QUICK_MODELS))
def test_non_finite_rows_are_refused(family, method, value):
    # the one row check: no family's own code ever sees a NaN or an infinity
    rng = np.random.default_rng(15)
    X = rng.standard_normal((24, 3))
    y = np.repeat(["a", "b", "c"], 8)
    model = QUICK_MODELS[family]()
    if method == "predict_scores":
        model.fit(X, y)
        X = rng.standard_normal((7, 3))
    X[4, 1] = value
    with pytest.raises(ValidationError, match="non-finite"):
        model.fit(X, y) if method == "fit" else model.predict_scores(X)
