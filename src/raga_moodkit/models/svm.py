"""RBF-kernel support vector machine trained by pairwise dual ascent (SMO),
with one-vs-one reduction for multiclass problems."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..base import FiniteNonNegativeFloat, FinitePositiveFloat, NonNegativeInt, PositiveInt
from ..errors import ValidationError
from .base import BaseClassifier
from .linear import softmax
from .serialize import bind_array, encode_array


def rbf_kernel_matrix(A, B, gamma: float) -> np.ndarray:
    """Kernel values between every row of A and every row of B."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


@dataclass
class BinarySvmModel:
    """Fitted two-class machine: support vectors, dual coefficients and bias.

    ``dual_coef`` holds alpha_i * y_i for the retained (alpha > 0) rows, so
    alpha_i is its magnitude and y_i its sign; ``support_indices`` holds
    their positions in the training set, for optimality checks.
    ``objective_history`` records the dual objective after every accepted
    update, starting from the zero initial point. ``converged`` says whether
    training stopped with every optimality condition within ``tol`` rather
    than by running out of sweeps; a model loaded from a bundle does not
    record it and holds None.
    """

    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float
    gamma: float
    C: float
    support_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    objective_history: list = field(default_factory=list, repr=False)
    n_sweeps: int = 0
    converged: bool | None = None

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """sum_i dual_coef[i] * K(x, support_vectors[i]) + bias per row x of a
        matrix already checked to be finite float64, as ``RbfSvmClassifier`` checks it."""
        if len(self.support_vectors) == 0:
            return np.full(X.shape[0], self.bias)
        k = rbf_kernel_matrix(X, self.support_vectors, self.gamma)
        return k @ self.dual_coef + self.bias


def smo_train_binary(X, y, C, gamma, tol, max_passes, seed, max_sweeps=10000) -> BinarySvmModel:
    """Pairwise coordinate ascent on the dual with +-1 labels.

    Takes the input ``RbfSvmClassifier`` has checked: a finite float64
    matrix, a float64 array of -1 and +1 holding both, and the classifier's
    hyperparameters.

    Sweeps the training set looking for multipliers that violate optimality
    beyond ``tol``; each violator is paired with a random partner (seeded)
    and the two multipliers are moved to the constrained pairwise optimum.
    After ``max_passes`` consecutive sweeps without a change the bias is
    consolidated from the margin constraints; sweeping resumes until the
    optimality conditions actually hold within ``tol`` (or the ``max_sweeps``
    budget runs out).

    When the pairwise curvature vanishes (duplicate or antipodal kernel
    rows) the update falls back to whichever feasible endpoint improves the
    dual, so duplicated points with conflicting labels still converge to
    bound multipliers.
    """
    n = X.shape[0]
    gram = rbf_kernel_matrix(X, X, gamma)
    # Scalars come from Python lists, which index faster than arrays.
    # ``coef`` is kept equal to ``alphas * y`` bit for bit, signed zeros
    # included: an accepted step rewrites its two changed entries, and with
    # y = +-1 each product is exact. A margin is then one dot product.
    rows = list(gram)
    k = gram.tolist()
    labels = y.tolist()
    alphas = [0.0] * n
    coef = np.zeros(n) * y
    margin = coef.dot  # np.dot's product, without its dispatch cost per call
    bias = 0.0
    rng = np.random.default_rng(seed)
    objective = 0.0
    history = [objective]

    def delta_objective(i, j, t, g_i, g_j):
        # Change of the dual when alpha_j moves to t along the equality
        # constraint (g_* are kernel expansions without the bias).
        s = labels[i] * labels[j]
        d_j = t - alphas[j]
        d_i = -s * d_j
        return (
            d_i
            + d_j
            - d_i * labels[i] * g_i
            - d_j * labels[j] * g_j
            - 0.5 * (d_i * d_i * k[i][i] + d_j * d_j * k[j][j])
            - s * d_i * d_j * k[i][j]
        )

    def consolidated_bias() -> float:
        # Recompute b globally from the margin constraints: the mean over
        # free support vectors, or the midpoint of the feasible interval
        # when every multiplier sits at a bound.
        expansion = coef @ gram
        alpha = np.array(alphas)
        free = (alpha > 1e-9) & (alpha < C - 1e-9)
        if free.any():
            return float(np.mean(y[free] - expansion[free]))
        boundary = y - expansion
        at_zero = alpha <= 1e-9
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
        margins_all = y * (coef @ gram + bias)
        alpha = np.array(alphas)
        at_zero = alpha <= 1e-12
        at_c = alpha >= C - 1e-12
        slack = np.abs(margins_all - 1.0)
        slack[at_zero] = np.maximum(0.0, 1.0 - margins_all[at_zero])
        slack[at_c] = np.maximum(0.0, margins_all[at_c] - 1.0)
        return float(slack.max())

    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        passes_clean = 0
        while passes_clean < max_passes and sweeps < max_sweeps:
            changed = 0
            for i in range(n):
                f_i = float(margin(rows[i])) + bias
                y_i = labels[i]
                e_i = f_i - y_i
                r_i = y_i * e_i
                alpha_i = alphas[i]
                if not ((r_i < -tol and alpha_i < C) or (r_i > tol and alpha_i > 0)):
                    continue
                j = int(rng.integers(n - 1))
                if j >= i:
                    j += 1
                f_j = float(margin(rows[j])) + bias
                y_j = labels[j]
                e_j = f_j - y_j
                alpha_j = alphas[j]

                if y_i != y_j:
                    low = max(0.0, alpha_j - alpha_i)
                    high = min(C, C + alpha_j - alpha_i)
                else:
                    low = max(0.0, alpha_i + alpha_j - C)
                    high = min(C, alpha_i + alpha_j)
                if high - low < 1e-12:
                    continue

                g_i = f_i - bias
                g_j = f_j - bias
                k_i = k[i]
                k_ij = k_i[j]
                k_ii = k_i[i]
                k_jj = k[j][j]
                eta = 2.0 * k_ij - k_ii - k_jj
                if eta < 0.0:
                    candidate = alpha_j - y_j * (e_i - e_j) / eta
                    candidate = min(max(candidate, low), high)
                else:
                    # Flat or concave-up direction: the pairwise optimum sits
                    # at a feasible endpoint.
                    gain_low = delta_objective(i, j, low, g_i, g_j)
                    gain_high = delta_objective(i, j, high, g_i, g_j)
                    candidate = low if gain_low > gain_high else high

                if abs(candidate - alpha_j) < 1e-9 * (candidate + alpha_j + 1e-9):
                    continue
                gain = delta_objective(i, j, candidate, g_i, g_j)
                if gain < -1e-9:
                    continue

                alphas[j] = candidate
                alphas[i] = new_i = alpha_i + y_i * y_j * (alpha_j - candidate)
                coef[i] = new_i * y_i
                coef[j] = candidate * y_j

                b1 = (
                    bias
                    - e_i
                    - y_i * (new_i - alpha_i) * k_ii
                    - y_j * (candidate - alpha_j) * k_ij
                )
                b2 = (
                    bias
                    - e_j
                    - y_i * (new_i - alpha_i) * k_ij
                    - y_j * (candidate - alpha_j) * k_jj
                )
                if 0.0 < new_i < C:
                    bias = b1
                elif 0.0 < candidate < C:
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
        converged = worst_violation() <= tol
        if converged:
            break

    keep = np.flatnonzero(np.array(alphas) > 0.0)
    return BinarySvmModel(
        support_vectors=X[keep].copy(),
        dual_coef=coef[keep],
        bias=float(bias),
        gamma=gamma,
        C=C,
        support_indices=keep,
        objective_history=history,
        n_sweeps=sweeps,
        converged=converged,
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


@dataclass(eq=False)
class RbfSvmClassifier(BaseClassifier):
    """One binary machine per unordered class pair; votes decide the label.

    Scores are a probability proxy: a softmax over the per-class vote tally
    plus a squashed sum of signed decision values. Because the squash stays
    inside (0, 1), the score argmax equals the vote argmax with ties broken
    by the summed decision values, then by class order.
    """

    family = "svm"
    C: FinitePositiveFloat = 10.0
    gamma: FinitePositiveFloat = 0.1
    tol: FiniteNonNegativeFloat = 1e-3  # a NaN tolerance is never met
    max_passes: PositiveInt = 10  # with 0 no sweep runs and training never ends
    seed: NonNegativeInt = 0
    #: Each class pair's stored arrays; ``N`` counts the pair's support vectors.
    _pair_arrays = {"support_vectors": ("N", "F"), "dual_coef": ("N",)}

    def _fit(self, X, y):
        if len(self.classes_) < 2:
            raise ValidationError("need at least two classes")
        pairs = list(itertools.combinations(range(len(self.classes_)), 2))
        seeds = np.random.default_rng(self.seed).integers(0, 2**63 - 1, size=len(pairs))
        self.pair_models_ = {}
        for (a, b), pair_seed in zip(pairs, seeds):
            mask = (y == a) | (y == b)
            signs = np.where(y[mask] == a, 1.0, -1.0)
            self.pair_models_[(a, b)] = smo_train_binary(
                X[mask], signs, **{**self.get_params(), "seed": int(pair_seed)})

    def _scores(self, X):
        n_classes = len(self.classes_)
        votes = np.zeros((X.shape[0], n_classes))
        decision_sums = np.zeros((X.shape[0], n_classes))
        for (a, b), model in self.pair_models_.items():
            values = model.decision_function(X)
            wins_a = values >= 0.0
            votes[:, a] += wins_a
            votes[:, b] += ~wins_a
            decision_sums[:, a] += values
            decision_sums[:, b] -= values
        return softmax(votes + _sigmoid(decision_sums))

    def _encode_state(self) -> dict:
        return {"pairs": [{"classes": [int(a), int(b)], "bias": model.bias,
                           **{key: encode_array(getattr(model, key)) for key in self._pair_arrays}}
                          for (a, b), model in sorted(self.pair_models_.items())]}

    def _decode_state(self, params: dict, sizes: dict) -> None:
        stored = [tuple(pair["classes"]) for pair in params["pairs"]]
        if not stored or sorted(stored) != list(itertools.combinations(range(len(self.classes_)), 2)):
            raise ValidationError(
                f"stored pairs {stored} are not each pair of {len(self.classes_)} >= 2 classes once")
        self.pair_models_ = {}
        for (a, b), pair in zip(stored, params["pairs"]):
            sizes.pop("N", None)  # each pair binds its own N; F is shared
            arrays = {key: bind_array(key, pair[key], layout, sizes) for key, layout in self._pair_arrays.items()}
            model = BinarySvmModel(**arrays, bias=float(pair["bias"]), gamma=self.gamma, C=self.C)
            if not np.isfinite(model.bias):
                raise ValidationError(f"pair {a}-{b} stores a bias of {model.bias}")
            self.pair_models_[(int(a), int(b))] = model
