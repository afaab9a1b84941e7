import numpy as np
import pytest

from raga_moodkit.errors import DivergenceDetected, ValidationError
from raga_moodkit.experiments import accuracy
from raga_moodkit.models import MlpClassifier
from raga_moodkit.models.mlp import forward, loss_and_grads


def numeric_gradients(weights, biases, X, onehot, step=1e-5):
    """Central finite differences over every parameter."""
    grads_w = [np.zeros_like(w) for w in weights]
    grads_b = [np.zeros_like(b) for b in biases]

    def loss():
        return loss_and_grads(weights, biases, X, onehot)[0]

    for target, grads in ((weights, grads_w), (biases, grads_b)):
        for layer, param in enumerate(target):
            flat = param.ravel()
            grad_flat = grads[layer].ravel()
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + step
                up = loss()
                flat[i] = original - step
                down = loss()
                flat[i] = original
                grad_flat[i] = (up - down) / (2 * step)
    return grads_w, grads_b


def relative_error(a, b):
    return np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-8)


class TestGradients:
    def test_backprop_matches_finite_differences_everywhere(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 7))
        y = np.array([0, 1, 2, 0, 1, 2])
        onehot = np.eye(3)[y]
        model = MlpClassifier(hidden=(5, 5, 5, 5), epochs=0, seed=1).fit(X, np.array(list("abc"))[y])
        weights, biases = model.weights_, model.biases_
        # keep pre-activations away from the ReLU kink so the finite
        # difference is a valid derivative estimate
        for activations in forward(weights, biases, X)[1:-1]:
            assert np.min(np.abs(activations[activations != 0])) > 1e-4

        _, grad_w, grad_b = loss_and_grads(weights, biases, X, onehot)
        num_w, num_b = numeric_gradients(weights, biases, X, onehot)
        for layer in range(5):
            assert np.max(relative_error(grad_w[layer], num_w[layer])) < 1e-4
            assert np.max(relative_error(grad_b[layer], num_b[layer])) < 1e-4


class TestMlp:
    def test_untrained_scores_near_uniform(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 8))
        y = rng.choice(["a", "b", "c"], 10)
        model = MlpClassifier(hidden=(16, 16, 8, 8), epochs=0, seed=0).fit(X, y)
        scores = model.predict_scores(X)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        assert np.max(np.abs(scores - 1.0 / 3.0)) < 0.3  # init noise only

    def test_separable_data_trains_to_perfect_accuracy(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-2, 0.4, (40, 2)), rng.normal(2, 0.4, (40, 2))])
        y = np.array(["lo"] * 40 + ["hi"] * 40)
        model = MlpClassifier(
            hidden=(16, 16, 8, 8), epochs=200, batch_size=16, learning_rate=0.05, seed=0
        ).fit(X, y)
        assert accuracy(model.predict(X), y) == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 5))
        y = rng.choice(["a", "b"], 30)
        queries = rng.standard_normal((8, 5))
        one = MlpClassifier(hidden=(8, 8, 8, 8), epochs=5, seed=6).fit(X, y)
        two = MlpClassifier(hidden=(8, 8, 8, 8), epochs=5, seed=6).fit(X, y)
        np.testing.assert_array_equal(one.predict_scores(queries), two.predict_scores(queries))

    def test_forward_pass_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((12, 4))
        y = rng.choice(["a", "b"], 12)
        model = MlpClassifier(hidden=(8, 8, 4, 4), epochs=3, seed=0).fit(X, y)
        q = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(model.predict_scores(q), model.predict_scores(q.copy()))

    def test_predict_is_score_argmax(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 4))
        y = rng.choice(["a", "b", "c"], 30)
        model = MlpClassifier(hidden=(8, 8, 4, 4), epochs=10, seed=0).fit(X, y)
        queries = rng.standard_normal((20, 4))
        scores = model.predict_scores(queries)
        np.testing.assert_array_equal(
            model.predict(queries), model.classes_[np.argmax(scores, axis=1)]
        )

    def test_exactly_four_hidden_layers_required(self):
        with pytest.raises(ValidationError):
            MlpClassifier(hidden=(8, 8)).fit(np.zeros((4, 2)), ["a", "a", "b", "b"])
        with pytest.raises(ValidationError):
            MlpClassifier(hidden=(8, 8, 8, 8, 8)).fit(np.zeros((4, 2)), ["a", "a", "b", "b"])

    def test_divergence_detected(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 3)) * 1e120
        y = rng.choice(["a", "b"], 20)
        with pytest.raises(DivergenceDetected):
            MlpClassifier(hidden=(8, 8, 8, 8), epochs=10, learning_rate=1e30, seed=0).fit(X, y)

    def test_full_batch_loss_non_increasing_small_rate(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 6))
        y = rng.choice(["a", "b", "c"], 50)
        model = MlpClassifier(
            hidden=(12, 12, 8, 8), epochs=40, batch_size=50, learning_rate=1e-4, seed=0
        ).fit(X, y)
        curve = np.array(model.loss_curve_)
        assert np.all(np.diff(curve) <= 1e-12)
