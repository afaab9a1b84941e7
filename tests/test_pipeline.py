"""Library-level pipeline pieces that need real (small) corpora."""
import dataclasses
import json

import numpy as np
import pytest

from raga_moodkit.audio import SegmentPlan, parse_plan
from raga_moodkit.bundle import ModelBundle
from raga_moodkit.cli import main
from raga_moodkit.errors import DataError
from raga_moodkit.experiments import ExperimentConfig, evaluate_bundle, extract_features, run_on_features
from raga_moodkit.mfcc import MfccConfig
from raga_moodkit.models import MlpClassifier, SoftmaxRegression
from raga_moodkit.recommender import score_library
from raga_moodkit.store import FeatureTable
from raga_moodkit.synth import SyntheticSpec, generate_corpus
from raga_moodkit.catalog import load_manifest


def test_experiment_from_manifest(tmp_path):
    # tiny corpus: short files force the short-tail path; single-cut plan
    manifest = generate_corpus(SyntheticSpec(files_per_class=2, duration_s=2.0, seed=5), tmp_path)
    records = load_manifest(manifest)
    config = ExperimentConfig(family="knn", params={"k": 1}, split_level="file", val_fraction=0.5, seed=0)

    def run():
        table, _ = extract_features(records, SegmentPlan(((0.0, 60.0),)), base_dir=tmp_path)
        return run_on_features(table, config)

    report = run()
    assert report.n_train_rows == 6 and report.n_val_rows == 6
    assert report.validation_accuracy == 1.0
    assert report.to_json() == run().to_json()


def test_bundle_records_the_tables_plan_and_mfcc(tmp_path, capsys):
    """A model cuts and featurizes served audio the way its table was made,
    whatever ExperimentConfig it was trained under."""
    manifest = generate_corpus(SyntheticSpec(files_per_class=3, duration_s=4.0, seed=6), tmp_path)
    plan = parse_plan("0:1,1:1,2:1")
    mfcc = MfccConfig(n_coeffs=20)
    table, _ = extract_features(load_manifest(manifest), plan, mfcc, base_dir=tmp_path)
    report = run_on_features(table, ExperimentConfig())
    for config in (report.config, report.bundle.config):
        assert config["plan"] == [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]
        assert config["mfcc"] == mfcc.get_params()
    model = tmp_path / "model.json"
    report.bundle.save(model)
    assert main(["classify", "--model", str(model), "--wav", str(tmp_path / "veera_001.wav")]) == 0
    assert json.loads(capsys.readouterr().out)["n_segments"] == 3


class TestExtractFeatures:
    def test_parallel_table_equals_serial(self, small_corpus):
        records = small_corpus.records[::5]
        serial, _ = extract_features(records, base_dir=small_corpus.base_dir)
        parallel, failures = extract_features(records, base_dir=small_corpus.base_dir, jobs=2)
        assert failures == []
        assert parallel.segment_ids == serial.segment_ids
        np.testing.assert_array_equal(parallel.labels, serial.labels)
        np.testing.assert_array_equal(parallel.X, serial.X)

    def test_pool_is_no_larger_than_the_work(self, small_corpus, inline_pool):
        sizes = inline_pool
        records = small_corpus.records[:2]
        serial, _ = extract_features(records, base_dir=small_corpus.base_dir)
        pooled, _ = extract_features(records, base_dir=small_corpus.base_dir, jobs=10**6)
        assert sizes == [2]
        assert pooled.segment_ids == serial.segment_ids
        np.testing.assert_array_equal(pooled.labels, serial.labels)
        np.testing.assert_array_equal(pooled.X, serial.X)
        extract_features(records[:1], base_dir=small_corpus.base_dir, jobs=10**6)
        assert sizes == [2]

    def test_failures_skipped_or_named(self, small_corpus, tmp_path):
        good = small_corpus.records[:2]
        ghosts = [
            dataclasses.replace(good[0], id="ghost", path=str(tmp_path / "missing.wav")),
            dataclasses.replace(good[1], id="not_audio", path=str(small_corpus.manifest_path)),
        ]
        records = [good[0], ghosts[0], good[1], ghosts[1]]
        for jobs in (1, 2):
            table, failures = extract_features(
                records, base_dir=small_corpus.base_dir, jobs=jobs, strict=False
            )
            assert table.song_ids == [r.id for r in good for _ in range(2)]
            assert [song_id for song_id, _ in failures] == ["ghost", "not_audio"]
            assert "missing.wav" in failures[0][1]
            with pytest.raises(DataError) as caught:
                extract_features(records, base_dir=small_corpus.base_dir, jobs=jobs)
            for ghost in ghosts:
                assert f"{ghost.id} ({ghost.path})" in str(caught.value)


class TestScoreLibrary:
    def _bundle(self, store):
        config = ExperimentConfig(
            family="svm", params={"C": 10.0, "gamma": 0.1}, seed=1,
        )
        return run_on_features(store, config).bundle

    def test_scores_per_song_sum_to_one(self, small_store):
        bundle = self._bundle(small_store)
        library = score_library(bundle, small_store)
        assert len(library) == len(set(small_store.song_ids))
        np.testing.assert_allclose(library.scores.sum(axis=1), 1.0, atol=1e-9)

    def test_single_song_library(self, small_store):
        bundle = self._bundle(small_store)
        solo = FeatureTable(  # both cuts of the first song
            segment_ids=small_store.segment_ids[:2], labels=small_store.labels[:2],
            X=small_store.X[:2], mfcc=small_store.mfcc, plan=small_store.plan,
        )
        library = score_library(bundle, solo)
        assert len(library) == 1
        expected = bundle.predict_scores(solo.X).mean(axis=0)
        np.testing.assert_allclose(library.scores[0], expected, atol=1e-12)

    def test_empty_library(self, small_store):
        bundle = self._bundle(small_store)
        empty = FeatureTable(
            segment_ids=[], labels=np.empty(0, dtype=str),
            X=np.empty((0, small_store.X.shape[1])),
            mfcc=small_store.mfcc, plan=small_store.plan,
        )
        library = score_library(bundle, empty)
        assert len(library) == 0

    def test_bundle_without_feature_setup_takes_no_table(self, small_store):
        trained = self._bundle(small_store)
        bare = ModelBundle(model=trained.model, scaler=trained.scaler, feature_fingerprint={})
        for reader in (score_library, evaluate_bundle):
            with pytest.raises(DataError, match="records no MFCC settings or no segment plan"):
                reader(bare, small_store)

    @pytest.mark.parametrize("setting", ["mfcc", "plan"])
    def test_fingerprint_mismatch_refused(self, small_store, setting):
        bundle = self._bundle(small_store)
        other = {"mfcc": MfccConfig(n_filters=40, n_coeffs=40, log_floor=1e-8),
                 "plan": parse_plan("first60")}
        refusal = {"mfcc": "feature configuration differs from the one the model was trained on",
                   "plan": "features cut by segment plan"}
        table = dataclasses.replace(small_store, **{setting: other[setting]})
        for reader in (score_library, evaluate_bundle):
            with pytest.raises(DataError, match=refusal[setting]):
                reader(bundle, table)


class TestTrainingDynamicsOnCorpusFeatures:
    """Loss curves stay monotone at conservative rates on real feature rows."""

    def test_softmax_regression_monotone_at_1e3(self, small_store):
        from raga_moodkit.catalog import FeatureScaler

        X = FeatureScaler("zscore").fit(small_store.X).transform(small_store.X)
        model = SoftmaxRegression(max_iter=300, learning_rate=1e-3).fit(X, small_store.labels)
        curve = np.array(model.loss_curve_)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_mlp_full_batch_monotone_at_1e4(self, small_store):
        from raga_moodkit.catalog import FeatureScaler

        X = FeatureScaler("zscore").fit(small_store.X).transform(small_store.X)
        model = MlpClassifier(
            hidden=(16, 16, 8, 8),
            epochs=30,
            batch_size=len(small_store),
            learning_rate=1e-4,
            seed=0,
        ).fit(X, small_store.labels)
        curve = np.array(model.loss_curve_)
        assert np.all(np.diff(curve) <= 1e-12)


def test_env_seed_fallback(tmp_path, monkeypatch, small_corpus):
    from raga_moodkit.cli import main
    import json

    store = tmp_path / "f.csv"
    assert main(
        ["extract", "--manifest", str(small_corpus.manifest_path), "--out", str(store),
         "--plan", "first60"]
    ) == 0
    monkeypatch.setenv("RAGA_MOODKIT_SEED", "99")
    model = tmp_path / "m.json"
    assert main(
        ["train", "--features", str(store), "--out", str(model), "--family", "knn",
         "--params", "k=3"]
    ) == 0
    payload = json.loads(model.read_text())
    assert payload["config"]["seed"] == 99
    assert payload["split"]["seed"] == 99
