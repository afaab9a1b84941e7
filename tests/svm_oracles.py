"""SVM oracles only tests call: the pointwise RBF kernel, the dual
objective and the per-row optimality slack of a trained binary machine."""
import numpy as np

from raga_moodkit.base import as_float_matrix
from raga_moodkit.errors import ValidationError
from raga_moodkit.models.svm import BinarySvmModel, RbfSvmClassifier


def rbf_kernel(a, b, gamma: float) -> float:
    """exp(-gamma * ||a - b||^2) for two vectors."""
    RbfSvmClassifier._check_params(gamma=gamma)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"vectors must share a dimension, got {a.shape} vs {b.shape}")
    delta = a - b
    return float(np.exp(-gamma * np.dot(delta, delta)))


def _dual_objective(alphas, labels, gram) -> float:
    coef = alphas * labels
    return float(alphas.sum() - 0.5 * coef @ gram @ coef)


def kkt_violations(model: BinarySvmModel, X, y) -> np.ndarray:
    """Per-row slack by which the optimality conditions are violated.

    ``X``/``y`` must be the training rows in their original order; the
    bound for each row depends on whether its multiplier is 0, C, or
    strictly between. A trained model should have every slack within the
    training tolerance.
    """
    X = as_float_matrix(X)
    y = np.asarray(y, dtype=np.float64)
    margins = y * model.decision_function(X)
    alphas = np.zeros(len(y))
    alphas[model.support_indices] = np.abs(model.dual_coef)
    violations = np.zeros(len(y))
    at_zero = alphas <= 1e-12
    at_c = alphas >= model.C - 1e-12
    interior = ~at_zero & ~at_c
    violations[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
    violations[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
    violations[interior] = np.abs(margins[interior] - 1.0)
    return violations
