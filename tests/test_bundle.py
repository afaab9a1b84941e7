"""``ModelBundle`` scores a table in fixed blocks of rows. Up to one block it
makes the model's single call, bit for bit. A taller table is scored one full
block per call, and its scores stay within ``BLOCK_TOLERANCE`` of the
whole-table call's, with the same predicted labels."""
import numpy as np
import pytest

from raga_moodkit.bundle import _BLOCK_ROWS, ModelBundle
from raga_moodkit.catalog import FeatureScaler
from raga_moodkit.models import FAMILIES

#: Scores lie in [0, 1]. BLAS may round a row differently when the matrix
#: around it has another height, so beyond one block the rule is closeness.
BLOCK_TOLERANCE = 1e-12

PARAMS = {
    "knn": {"k": 3},
    "logreg": {"max_iter": 40},
    "svm": {"gamma": 0.1},
    "forest": {"n_estimators": 10},
    "mlp": {"epochs": 5},
}
N_FEATURES = 6


@pytest.fixture(scope="module", params=list(FAMILIES))
def bundle(request):
    rng = np.random.default_rng(3)
    labels = np.repeat(["a", "b", "c", "d"], 25)
    X = rng.normal(0.0, 3.0, (4, N_FEATURES))[np.repeat(np.arange(4), 25)]
    X += rng.standard_normal(X.shape)
    scaler = FeatureScaler().fit(X)
    model = FAMILIES[request.param]().set_params(**PARAMS.get(request.param, {}))
    return ModelBundle(model=model.fit(scaler.transform(X), labels), scaler=scaler, feature_fingerprint={})


@pytest.mark.parametrize("n_rows", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7])
def test_blocked_scores_match_the_whole_table_call(bundle, n_rows, monkeypatch):
    X = np.random.default_rng(n_rows).normal(0.0, 3.0, (n_rows, N_FEATURES))
    whole = bundle.model.predict_scores(bundle.scaler.transform(X))
    heights = []
    score_rows = bundle.model.predict_scores

    def spy(rows):
        heights.append(len(rows))
        return score_rows(rows)

    monkeypatch.setattr(bundle.model, "predict_scores", spy)
    scores = bundle.predict_scores(X)
    if n_rows <= _BLOCK_ROWS:
        assert heights == [n_rows]
        assert np.array_equal(scores, whole)
    else:
        assert heights == [_BLOCK_ROWS] * -(-n_rows // _BLOCK_ROWS)
        np.testing.assert_allclose(scores, whole, rtol=0.0, atol=BLOCK_TOLERANCE)
    assert np.array_equal(bundle.predict(X), bundle.model.classes_[np.argmax(whole, axis=1)])
