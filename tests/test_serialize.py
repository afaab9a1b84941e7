import inspect
import json

import numpy as np
import pytest

from raga_moodkit.errors import ValidationError
from raga_moodkit.models import (
    FAMILIES,
    GaussianNbClassifier,
    KnnClassifier,
    MlpClassifier,
    RandomForestClassifier,
    RbfSvmClassifier,
    SoftmaxRegression,
)
from raga_moodkit.models.serialize import decode_array, encode_array, from_envelope, to_envelope
from raga_moodkit.models.tree import DecisionTreeClassifier


def test_array_roundtrip_exact():
    rng = np.random.default_rng(0)
    for shape in ((3,), (4, 5), (2, 3, 4)):
        arr = rng.standard_normal(shape)
        again = decode_array(encode_array(arr))
        np.testing.assert_array_equal(arr, again)
        assert again.shape == arr.shape


def test_envelope_shape():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((12, 3))
    y = rng.choice(["a", "b"], 12)
    envelope = to_envelope(KnnClassifier(k=3).fit(X, y))
    assert set(envelope) == {"format_version", "family", "class_order", "params"}
    assert envelope["format_version"] == 1
    assert envelope["family"] == "knn"
    assert envelope["class_order"] == ["a", "b"]
    json.dumps(envelope)  # JSON-serializable throughout


@pytest.mark.parametrize(
    "factory",
    [
        lambda: KnnClassifier(k=3, metric="euclidean", weights="distance"),
        lambda: GaussianNbClassifier(),
        lambda: SoftmaxRegression(max_iter=40),
        lambda: RbfSvmClassifier(C=10.0, gamma=0.1, seed=0),
        lambda: RandomForestClassifier(n_estimators=5, max_features=0.7, seed=2),
        lambda: MlpClassifier(hidden=(8, 8, 4, 4), epochs=5, seed=3),
    ],
    ids=["knn", "gnb", "logreg", "svm", "forest", "mlp"],
)
def test_fitted_model_roundtrip(factory):
    rng = np.random.default_rng(7)
    X = np.vstack(
        [rng.normal(-2, 0.5, (15, 4)), rng.normal(2, 0.5, (15, 4)), rng.normal(6, 0.5, (15, 4))]
    )
    y = np.array(["a"] * 15 + ["b"] * 15 + ["c"] * 15)
    model = factory().fit(X, y)
    queries = rng.uniform(-4, 8, (20, 4))

    envelope = to_envelope(model)
    blob = json.dumps(envelope, sort_keys=True)
    restored = from_envelope(json.loads(blob))
    assert to_envelope(restored) == envelope

    np.testing.assert_allclose(
        model.predict_scores(queries), restored.predict_scores(queries), atol=1e-12
    )
    np.testing.assert_array_equal(model.predict(queries), restored.predict(queries))
    np.testing.assert_array_equal(model.classes_, restored.classes_)


def test_unknown_family_rejected():
    with pytest.raises(ValidationError):
        from_envelope({"format_version": 1, "family": "hmm", "class_order": [], "params": {}})


def test_unknown_version_rejected():
    with pytest.raises(ValidationError):
        from_envelope({"format_version": 99, "family": "knn", "class_order": [], "params": {}})


def test_svm_envelope_keeps_no_derivable_state_and_reads_older_files():
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(-2, 0.5, (12, 3)), rng.normal(2, 0.5, (12, 3))])
    y = np.array(["a"] * 12 + ["b"] * 12)
    model = RbfSvmClassifier(C=10.0, gamma=0.1, seed=0).fit(X, y)
    envelope = to_envelope(model)
    for pair in envelope["params"]["pairs"]:
        assert set(pair) == {"classes", "support_vectors", "dual_coef", "bias"}
        # older bundles also stored the multipliers and the labels: |dual_coef| and its sign
        coef = decode_array(pair["dual_coef"])
        pair["alphas"] = encode_array(np.abs(coef))
        pair["labels"] = encode_array(np.sign(coef))
    restored = from_envelope(json.loads(json.dumps(envelope)))
    np.testing.assert_array_equal(model.predict_scores(X), restored.predict_scores(X))


def test_forest_envelope_reads_older_files_with_bootstrap_key():
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(-2, 0.5, (12, 3)), rng.normal(2, 0.5, (12, 3))])
    y = np.array(["a"] * 12 + ["b"] * 12)
    model = RandomForestClassifier(n_estimators=3, seed=1).fit(X, y)
    envelope = to_envelope(model)
    assert "bootstrap" not in envelope["params"]
    envelope["params"]["bootstrap"] = True  # older bundles recorded the removed option
    restored = from_envelope(json.loads(json.dumps(envelope)))
    np.testing.assert_array_equal(model.predict_scores(X), restored.predict_scores(X))


#: A value other than the default for every constructor parameter.
NON_DEFAULT_PARAMS = {
    KnnClassifier: {"k": 3, "metric": "euclidean", "weights": "distance"},
    GaussianNbClassifier: {"var_floor": 1e-6},
    SoftmaxRegression: {"max_iter": 20, "learning_rate": 0.05},
    RbfSvmClassifier: {"C": 3, "gamma": 0.2, "tol": 1e-2, "max_passes": 4, "seed": 2},
    RandomForestClassifier: {
        "n_estimators": 3, "criterion": "entropy", "max_depth": 3, "max_features": 0.5,
        "min_samples_leaf": 2, "min_samples_split": 3, "seed": 1,
    },
    MlpClassifier: {"hidden": (6, 5, 4, 3), "epochs": 3, "batch_size": 4,
                    "learning_rate": 0.01, "seed": 1},
    DecisionTreeClassifier: {
        "criterion": "entropy", "max_depth": 3, "max_features": 0.5,
        "min_samples_leaf": 2, "min_samples_split": 3, "seed": 1,
    },
}


@pytest.mark.parametrize(
    "cls", [*FAMILIES.values(), DecisionTreeClassifier], ids=lambda cls: cls.__name__
)
def test_stored_parameters_are_the_constructor_parameters(cls):
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(-2, 0.5, (6, 3)), rng.normal(2, 0.5, (6, 3))])
    y = np.array(["a"] * 6 + ["b"] * 6)
    params = NON_DEFAULT_PARAMS[cls]
    signature = inspect.signature(cls).parameters
    assert set(params) == set(signature)
    assert all(params[name] != signature[name].default for name in params)
    model = cls(**params).fit(X, y)

    stored = json.loads(json.dumps(model._encode_params()))
    for name in signature:
        assert stored[name] == json.loads(json.dumps(params[name])), name
    restored = cls()
    restored.classes_ = model.classes_
    restored._decode_params(stored)
    assert restored.get_params() == model.get_params() == params
    np.testing.assert_array_equal(restored.predict_scores(X), model.predict_scores(X))
