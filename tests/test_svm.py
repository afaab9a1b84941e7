import itertools
import math

import numpy as np
import pytest

from raga_moodkit.errors import ValidationError
from raga_moodkit.models.svm import RbfSvmClassifier, rbf_kernel_matrix, smo_train_binary
from svm_oracles import _dual_objective, kkt_violations, rbf_kernel


def separable_blobs(rng, n_per_class=20, separation=6.0):
    """Two 2-D clusters far enough apart for a clean margin at gamma=0.1."""
    a = rng.normal(0.0, 0.6, (n_per_class, 2))
    b = rng.normal(0.0, 0.6, (n_per_class, 2)) + separation
    X = np.vstack([a, b])
    y = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return X, y


def train_pair(X, y, **params):
    """``smo_train_binary`` at ``RbfSvmClassifier``'s defaults, overridden by ``params``."""
    return smo_train_binary(X, y, **{**RbfSvmClassifier().get_params(), **params})


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
    def test_two_point_analytic_solution(self):
        # alpha* = 1/(1 - K12), b = 0, boundary at the midpoint
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        y = np.array([1.0, -1.0])
        gamma = 0.1
        k12 = math.exp(-gamma * 1.0)
        expected_alpha = 1.0 / (1.0 - k12)
        model = train_pair(X, y, C=100.0, gamma=gamma, tol=1e-6, max_passes=20)
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
        model = train_pair(X, y, C=C, gamma=0.1, tol=1e-4, max_passes=20)
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
        model = train_pair(X, y, C=10.0, gamma=0.1, seed=1)
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
        model = train_pair(X, y, C=10.0, gamma=0.1, tol=tol)
        alphas = np.abs(model.dual_coef)
        free = (alphas > 1e-9) & (alphas < 10.0 - 1e-9)
        if free.any():
            values = model.decision_function(model.support_vectors[free])
            np.testing.assert_allclose(values, np.sign(model.dual_coef[free]), atol=tol)

    def test_row_order_invariance(self):
        rng = np.random.default_rng(5)
        X, y = separable_blobs(rng)
        queries = rng.uniform(-2, 8, (40, 2))
        base = np.sign(train_pair(X, y, C=10.0, gamma=0.1).decision_function(queries))
        perm = rng.permutation(len(y))
        shuffled = np.sign(
            train_pair(X[perm], y[perm], C=10.0, gamma=0.1).decision_function(queries)
        )
        np.testing.assert_array_equal(base, shuffled)

    def test_single_class_rejected(self, monkeypatch):
        # The trainer takes both signs as given: a one-label set is refused
        # by the classifier before any pair is handed to it.
        calls = []
        monkeypatch.setattr(
            "raga_moodkit.models.svm.smo_train_binary", lambda *a, **k: calls.append(a))
        with pytest.raises(ValidationError, match="need at least two classes"):
            RbfSvmClassifier().fit(np.zeros((3, 2)), np.ones(3))
        assert calls == []


def reference_smo(X, y, C, gamma, tol=1e-3, max_passes=10, seed=0, max_sweeps=10000):
    """The SMO loop as it stood before margins kept ``alphas * y`` between
    steps, copied verbatim: every intermediate is built from numpy arrays.
    Returns ``(dual_coef, bias, support_indices, n_sweeps, objective_history)``."""
    n = X.shape[0]
    gram = rbf_kernel_matrix(X, X, gamma)
    alphas = np.zeros(n)
    bias = 0.0
    rng = np.random.default_rng(seed)
    objective = 0.0
    history = [objective]

    def margins(i):
        return float((alphas * y) @ gram[i] + bias)

    def delta_objective(i, j, t, g_i, g_j):
        # Change of the dual when alpha_j moves to t along the equality
        # constraint (g_* are kernel expansions without the bias).
        s = y[i] * y[j]
        d_j = t - alphas[j]
        d_i = -s * d_j
        return (
            d_i
            + d_j
            - d_i * y[i] * g_i
            - d_j * y[j] * g_j
            - 0.5 * (d_i * d_i * gram[i, i] + d_j * d_j * gram[j, j])
            - s * d_i * d_j * gram[i, j]
        )

    def consolidated_bias() -> float:
        # Recompute b globally from the margin constraints: the mean over
        # free support vectors, or the midpoint of the feasible interval
        # when every multiplier sits at a bound.
        expansion = (alphas * y) @ gram
        free = (alphas > 1e-9) & (alphas < C - 1e-9)
        if free.any():
            return float(np.mean(y[free] - expansion[free]))
        boundary = y - expansion
        at_zero = alphas <= 1e-9
        is_lower = (at_zero & (y > 0)) | (~at_zero & (y < 0))
        lower = boundary[is_lower]
        upper = boundary[~is_lower]
        if lower.size and upper.size:
            return 0.5 * (float(lower.max()) + float(upper.min()))
        if lower.size:
            return float(lower.max())
        if upper.size:
            return float(upper.min())
        return bias

    def worst_violation() -> float:
        margins_all = y * ((alphas * y) @ gram + bias)
        at_zero = alphas <= 1e-12
        at_c = alphas >= C - 1e-12
        slack = np.abs(margins_all - 1.0)
        slack[at_zero] = np.maximum(0.0, 1.0 - margins_all[at_zero])
        slack[at_c] = np.maximum(0.0, margins_all[at_c] - 1.0)
        return float(slack.max())

    sweeps = 0
    while sweeps < max_sweeps:
        passes_clean = 0
        while passes_clean < max_passes and sweeps < max_sweeps:
            changed = 0
            for i in range(n):
                f_i = margins(i)
                e_i = f_i - y[i]
                r_i = y[i] * e_i
                if not ((r_i < -tol and alphas[i] < C) or (r_i > tol and alphas[i] > 0)):
                    continue
                j = int(rng.integers(n - 1))
                if j >= i:
                    j += 1
                f_j = margins(j)
                e_j = f_j - y[j]

                if y[i] != y[j]:
                    low = max(0.0, alphas[j] - alphas[i])
                    high = min(C, C + alphas[j] - alphas[i])
                else:
                    low = max(0.0, alphas[i] + alphas[j] - C)
                    high = min(C, alphas[i] + alphas[j])
                if high - low < 1e-12:
                    continue

                g_i = f_i - bias
                g_j = f_j - bias
                eta = 2.0 * gram[i, j] - gram[i, i] - gram[j, j]
                if eta < 0.0:
                    candidate = alphas[j] - y[j] * (e_i - e_j) / eta
                    candidate = min(max(candidate, low), high)
                else:
                    # Flat or concave-up direction: the pairwise optimum sits
                    # at a feasible endpoint.
                    gain_low = delta_objective(i, j, low, g_i, g_j)
                    gain_high = delta_objective(i, j, high, g_i, g_j)
                    candidate = low if gain_low > gain_high else high

                if abs(candidate - alphas[j]) < 1e-9 * (candidate + alphas[j] + 1e-9):
                    continue
                gain = delta_objective(i, j, candidate, g_i, g_j)
                if gain < -1e-9:
                    continue

                alpha_j_old = alphas[j]
                alpha_i_old = alphas[i]
                alphas[j] = candidate
                alphas[i] = alpha_i_old + y[i] * y[j] * (alpha_j_old - candidate)

                b1 = (
                    bias
                    - e_i
                    - y[i] * (alphas[i] - alpha_i_old) * gram[i, i]
                    - y[j] * (alphas[j] - alpha_j_old) * gram[i, j]
                )
                b2 = (
                    bias
                    - e_j
                    - y[i] * (alphas[i] - alpha_i_old) * gram[i, j]
                    - y[j] * (alphas[j] - alpha_j_old) * gram[j, j]
                )
                if 0.0 < alphas[i] < C:
                    bias = b1
                elif 0.0 < alphas[j] < C:
                    bias = b2
                else:
                    bias = 0.5 * (b1 + b2)

                objective += gain
                history.append(objective)
                changed += 1
            sweeps += 1
            passes_clean = passes_clean + 1 if changed == 0 else 0
        # sweeping stalled: consolidate b and stop only if the optimality
        # conditions genuinely hold; otherwise resume with the better bias
        bias = consolidated_bias()
        if worst_violation() <= tol:
            break

    keep = np.flatnonzero(alphas > 0.0)
    return (alphas * y)[keep], float(bias), keep, sweeps, history


def _overlapping_blobs(n, seed):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([rng.normal(0.0, 1.0, (half, 3)), rng.normal(1.5, 1.0, (n - half, 3))])
    y = np.concatenate([np.ones(half), -np.ones(n - half)])
    return X, y


def _with_conflicting_duplicates(n, seed):
    # three rows repeated with the opposite label: zero pairwise curvature,
    # so the eta >= 0 endpoint branch runs
    X, y = _overlapping_blobs(n, seed)
    return np.vstack([X, X[:3]]), np.concatenate([y, -y[:3]])


REFERENCE_TABLE = (
    [
        pytest.param(_overlapping_blobs, n, C, gamma, {}, id=f"blobs{n}-C{C}-g{gamma}")
        for n in (10, 60)
        for C in (0.5, 1.0, 10.0, 100.0)
        for gamma in (0.001, 0.01, 0.1, 1.0)
    ]
    + [
        pytest.param(_with_conflicting_duplicates, 25, C, gamma, {}, id=f"dup25-C{C}-g{gamma}")
        for C, gamma in ((0.5, 0.1), (10.0, 1.0), (100.0, 0.01))
    ]
    + [
        pytest.param(_overlapping_blobs, 30, 10.0, 0.1, {"max_passes": 1}, id="passes1"),
        pytest.param(_with_conflicting_duplicates, 40, 1.0, 1.0, {"max_passes": 1}, id="dup40-passes1"),
        pytest.param(_overlapping_blobs, 40, 100.0, 0.1, {"max_sweeps": 3}, id="sweeps3"),
    ]
)


class TestMatchesReferenceLoop:
    """The trainer's iterates equal the reference loop's bit for bit."""

    @pytest.mark.parametrize("data, n, C, gamma, extra", REFERENCE_TABLE)
    def test_bit_identical(self, data, n, C, gamma, extra):
        X, y = data(n, seed=n + int(C))
        kwargs = {"C": C, "gamma": gamma, "seed": 7, **extra}
        dual_coef, bias, support, n_sweeps, history = reference_smo(X, y, **kwargs)
        model = train_pair(X, y, **kwargs)
        assert np.array_equal(model.dual_coef, dual_coef)
        assert model.bias == bias
        assert np.array_equal(model.support_indices, support)
        assert model.n_sweeps == n_sweeps
        assert model.objective_history == history
        if "max_sweeps" in extra:
            assert n_sweeps == extra["max_sweeps"]  # the budget did run out
            assert model.converged is False


class TestConvergedFlag:
    def test_converged_when_conditions_hold(self):
        X, y = separable_blobs(np.random.default_rng(2))
        model = train_pair(X, y, C=10.0, gamma=0.1, tol=1e-3)
        assert model.converged is True
        assert np.max(kkt_violations(model, X, y)) <= 1e-3

    def test_exhausted_budget_is_not_converged(self):
        X, y = _overlapping_blobs(40, seed=3)
        model = train_pair(X, y, C=100.0, gamma=0.1, tol=1e-3, max_sweeps=1)
        assert model.n_sweeps == 1
        assert model.converged is False
        assert np.max(kkt_violations(model, X, y)) > 1e-3

    def test_pair_machines_report_it_and_bundles_leave_it_out(self):
        X, y = _overlapping_blobs(30, seed=4)
        clf = RbfSvmClassifier(C=10.0, gamma=0.1).fit(X, np.where(y > 0, "a", "b"))
        assert all(m.converged is True for m in clf.pair_models_.values())
        state = clf._encode_state()
        assert "converged" not in state["pairs"][0]
        clf._decode_params({**clf.get_params(), **state})
        assert all(m.converged is None for m in clf.pair_models_.values())


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
        with pytest.raises(ValidationError, match="need at least two classes"):
            RbfSvmClassifier().fit(np.zeros((4, 2)), ["a"] * 4)

    @pytest.mark.parametrize("name", ["C", "gamma", "tol"])
    def test_nan_hyperparameter_rejected(self, name):
        with pytest.raises(ValidationError):
            RbfSvmClassifier(**{name: math.nan})
