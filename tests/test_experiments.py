import dataclasses
import json

import numpy as np
import pytest

from raga_moodkit.audio import DEFAULT_BI_SAMPLE_PLAN, SegmentPlan
from raga_moodkit.errors import (
    EmptyInput,
    MoodkitError,
    NoEligibleModel,
    ValidationError,
)
from raga_moodkit.errors import ClassTooSmall
from raga_moodkit.experiments import (
    ExperimentConfig,
    ExperimentReport,
    accuracy,
    confusion_matrix,
    evaluate_bundle,
    grid_points,
    grid_search,
    kfold_indices,
    precision_recall,
    run_on_features,
    select_final_model,
    split_table,
)
from raga_moodkit.catalog import FeatureScaler
from raga_moodkit.mfcc import MfccConfig
from raga_moodkit.models import RbfSvmClassifier, make_classifier
from raga_moodkit.store import FeatureTable, segment_id
from raga_moodkit.synth import SyntheticSpec


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert accuracy(["a", "a"], ["b", "b"]) == 0.0

    def test_three_of_four(self):
        assert accuracy(["a", "b", "a", "a"], ["a", "b", "a", "b"]) == 0.75

    def test_empty(self):
        with pytest.raises(EmptyInput):
            accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            accuracy(["a"], ["a", "b"])


class TestConfusion:
    def test_perfect_is_diagonal(self):
        labels = ["a", "b", "c", "a"]
        matrix = confusion_matrix(labels, labels, classes=("a", "b", "c"))
        assert np.all(matrix == np.diag([2, 1, 1]))

    def test_single_error_off_diagonal(self):
        matrix = confusion_matrix(["b"], ["a"], classes=("a", "b"))
        assert matrix[0, 1] == 1 and matrix.sum() == 1

    def test_trace_over_total_is_accuracy(self):
        rng = np.random.default_rng(0)
        labels = rng.choice(list("abc"), 100)
        predictions = rng.choice(list("abc"), 100)
        matrix = confusion_matrix(predictions, labels, classes=("a", "b", "c"))
        assert np.trace(matrix) / matrix.sum() == pytest.approx(accuracy(predictions, labels))

    def test_row_sums_are_class_counts(self):
        labels = ["a", "a", "b"]
        matrix = confusion_matrix(["b", "a", "b"], labels, classes=("a", "b"))
        np.testing.assert_array_equal(matrix.sum(axis=1), [2, 1])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            confusion_matrix(["zz"], ["a"], classes=("a", "b"))

    def test_first_row_outside_the_classes_is_named(self):
        with pytest.raises(ValidationError, match="'b' -> 'zz'"):
            confusion_matrix(["a", "zz", "a", "yy"], ["a", "b", "x", "a"], classes=("a", "b"))

    def test_counts_match_a_row_by_row_tally(self):
        rng = np.random.default_rng(5)
        classes = ("Veera", "Karuna", "Haasya", "Shantha")  # not sorted
        labels = rng.choice(classes, 300)
        predictions = rng.choice(classes, 300)
        expected = np.zeros((4, 4), dtype=np.int64)
        for true, predicted in zip(labels, predictions):
            expected[classes.index(true), classes.index(predicted)] += 1
        matrix = confusion_matrix(predictions, labels, classes=classes)
        assert matrix.dtype == np.int64
        np.testing.assert_array_equal(matrix, expected)

    def test_precision_recall(self):
        matrix = np.array([[8, 2], [1, 9]])
        precision, recall = precision_recall(matrix)
        assert precision[0] == pytest.approx(8 / 9)
        assert recall[0] == pytest.approx(0.8)
        # degenerate column
        precision, recall = precision_recall(np.array([[2, 0], [1, 0]]))
        assert precision[1] == 0.0


class TestGridSearch:
    def _data(self):
        rng = np.random.default_rng(1)
        X_train = np.vstack([rng.normal(-2, 0.5, (20, 2)), rng.normal(2, 0.5, (20, 2))])
        y_train = np.array(["lo"] * 20 + ["hi"] * 20)
        X_val = np.vstack([rng.normal(-2, 0.5, (10, 2)), rng.normal(2, 0.5, (10, 2))])
        y_val = np.array(["lo"] * 10 + ["hi"] * 10)
        return (X_train, y_train), (X_val, y_val)

    def _holdout(self):
        """The same rows stacked, with the holdout as one fold."""
        (X_train, y_train), (X_val, y_val) = self._data()
        folds = [(np.arange(40), np.arange(40, 60))]
        return np.vstack([X_train, X_val]), np.concatenate([y_train, y_val]), folds

    def test_grid_points_lexicographic(self):
        points = grid_points({"gamma": [0.1, 0.2], "C": [1, 10]})
        assert points == [
            {"C": 1, "gamma": 0.1},
            {"C": 1, "gamma": 0.2},
            {"C": 10, "gamma": 0.1},
            {"C": 10, "gamma": 0.2},
        ]

    def test_single_point(self):
        best, rows, _ = grid_search("knn", {"k": [3]}, *self._holdout())
        assert best == {"k": 3}
        assert len(rows) == 1

    def test_best_equals_exhaustive_oracle(self):
        train, val = self._data()
        grid = {"C": [1, 10], "gamma": [0.01, 0.1]}
        best, rows, _ = grid_search("svm", grid, *self._holdout(), base_params={"seed": 0})
        # independent exhaustive re-evaluation in the same order
        from raga_moodkit.models import make_classifier

        expected, expected_accuracy = None, -1.0
        for point in grid_points(grid):
            model = make_classifier("svm", seed=0, **point)
            model.fit(*train)
            point_accuracy = np.mean(model.predict(val[0]) == val[1])
            if point_accuracy > expected_accuracy:
                expected, expected_accuracy = point, point_accuracy
        assert best == expected
        assert len(rows) == 4
        assert all(r.error is None for r in rows)

    def test_all_tie_takes_first(self):
        best, rows, _ = grid_search("knn", {"k": [3, 5, 7]}, *self._holdout())
        accuracies = [r.validation_accuracy for r in rows]
        assert all(a == accuracies[0] for a in accuracies)
        assert best == {"k": 3}

    def test_failed_points_recorded_not_fatal(self):
        best, rows, _ = grid_search("knn", {"k": [3, 4000]}, *self._holdout())
        assert best == {"k": 3}
        assert rows[1].error is not None and rows[1].validation_accuracy is None

    def test_all_points_failing_raises(self):
        with pytest.raises(MoodkitError):
            grid_search("knn", {"k": [4000, 5000]}, *self._holdout())

    def test_empty_grid(self):
        with pytest.raises(ValidationError):
            grid_search("knn", {}, *self._holdout())


def synthetic_table(
    n_songs_per_class=6, classes=("Karuna", "Veera"), n_coeffs=4, cuts=2, seed=0, prefix=""
):
    """Feature rows with class-dependent means, two cuts per 'song'."""
    rng = np.random.default_rng(seed)
    ids, labels, rows = [], [], []
    for c, cls in enumerate(classes):
        for s in range(n_songs_per_class):
            song = f"{prefix}{cls.lower()}_{s:02d}"
            for cut in range(cuts):
                ids.append(segment_id(song, cut))
                labels.append(cls)
                rows.append(rng.normal(3.0 * c, 0.3, n_coeffs))
    return FeatureTable(
        segment_ids=ids,
        labels=np.asarray(labels, dtype=str),
        X=np.vstack(rows),
        mfcc=MfccConfig(n_filters=8, n_coeffs=n_coeffs),
        plan=DEFAULT_BI_SAMPLE_PLAN if cuts == 2 else SegmentPlan(((0.0, 60.0),)),
    )


class TestSplitTable:
    def test_file_level_never_splits_a_song(self):
        table = synthetic_table()
        train_idx, val_idx = split_table(table, "file", 0.25, seed=3)
        train_songs = {table.song_ids[i] for i in train_idx}
        val_songs = {table.song_ids[i] for i in val_idx}
        assert not train_songs & val_songs
        assert len(train_idx) + len(val_idx) == len(table)

    def test_segment_level_can_split_songs(self):
        table = synthetic_table()
        train_idx, val_idx = split_table(table, "segment", 0.25, seed=3)
        train_songs = {table.song_ids[i] for i in train_idx}
        val_songs = {table.song_ids[i] for i in val_idx}
        assert train_songs & val_songs  # leaky by design

    def test_deterministic(self):
        table = synthetic_table()
        one = split_table(table, "file", 0.25, seed=9)
        two = split_table(table, "file", 0.25, seed=9)
        np.testing.assert_array_equal(one[0], two[0])
        np.testing.assert_array_equal(one[1], two[1])


class TestRunOnFeatures:
    def test_report_structure_and_consistency(self):
        table = synthetic_table()
        config = ExperimentConfig(family="knn", params={"k": 3}, seed=1)
        report = run_on_features(table, config)
        assert report.validation_accuracy == 1.0  # trivially separable
        matrix = np.asarray(report.confusion_matrix)
        assert np.trace(matrix) / matrix.sum() == pytest.approx(report.validation_accuracy)
        assert matrix.sum() == report.n_val_rows
        assert report.bundle is not None
        assert report.bundle.metrics["validation_accuracy"] == report.validation_accuracy
        assert set(report.per_class) == {"Karuna", "Veera"}

    def test_grid_inside_experiment(self):
        table = synthetic_table()
        config = ExperimentConfig(
            family="knn", grid={"k": [1, 3]}, seed=1
        )
        report = run_on_features(table, config)
        assert report.grid_rows is not None and len(report.grid_rows) == 2
        assert report.params["k"] in (1, 3)
        assert report.config["params"] == report.params

    def test_deterministic_reports(self):
        table = synthetic_table()
        config = ExperimentConfig(family="svm", params={"C": 10.0, "gamma": 0.1}, seed=2)
        one = run_on_features(table, config)
        two = run_on_features(table, config)
        assert one.to_json() == two.to_json()

    def test_wall_clock_not_serialized(self):
        table = synthetic_table()
        config = ExperimentConfig(family="knn", params={"k": 1}, seed=1)
        report = run_on_features(table, config)
        assert report.wall_clock_s > 0
        assert "wall_clock" not in report.to_json()

    def test_report_json_keys(self):
        table = synthetic_table()
        keys = {"config", "family", "params", "train_accuracy", "validation_accuracy", "classes",
                "confusion_matrix", "per_class", "n_train_rows", "n_val_rows"}
        trained = run_on_features(table, ExperimentConfig(family="knn", params={"k": 1}, seed=1))
        assert set(json.loads(trained.to_json())) == keys
        tuned = run_on_features(table, ExperimentConfig(family="knn", grid={"k": [1, 10_000]}, seed=1))
        payload = json.loads(tuned.to_json())
        assert set(payload) == keys | {"grid_rows"}
        assert [set(row) for row in payload["grid_rows"]] == [{"params", "validation_accuracy", "error"}] * 2
        assert [row["params"]["k"] for row in payload["grid_rows"]] == [1, 10_000]
        assert payload["grid_rows"][0]["error"] is None and payload["grid_rows"][1]["error"]

    def test_markdown_table_shape(self):
        table = synthetic_table()
        config = ExperimentConfig(family="knn", params={"k": 3}, seed=1)
        markdown = run_on_features(table, config).to_markdown()
        assert "Validation Classification Accuracy" in markdown
        assert "2 Segments - 0s-60s and 20s-80s" in markdown

    @staticmethod
    def assert_scored_alike(report, evaluated):
        # the stored metrics and the report come from the path evaluate runs
        assert evaluated.train_accuracy == report.train_accuracy == report.bundle.metrics["train_accuracy"]
        assert (evaluated.validation_accuracy == report.validation_accuracy
                == report.bundle.metrics["validation_accuracy"])
        assert evaluated.confusion_matrix == report.confusion_matrix
        assert evaluated.per_class == report.per_class
        assert (evaluated.n_train_rows, evaluated.n_val_rows) == (report.n_train_rows, report.n_val_rows)

    def test_evaluate_bundle_consistency(self):
        table = synthetic_table()
        config = ExperimentConfig(family="gnb", seed=4)
        report = run_on_features(table, config)
        self.assert_scored_alike(report, evaluate_bundle(report.bundle, table))

    def test_evaluate_bundle_consistency_taller_than_one_block(self):
        # 1,080 training rows are scored in two 1,024-row blocks
        table = synthetic_table(n_songs_per_class=300, n_coeffs=6)
        config = ExperimentConfig(family="knn", params={"k": 5}, val_fraction=0.1, seed=4)
        report = run_on_features(table, config)
        assert (report.n_train_rows, report.n_val_rows) == (1080, 120)
        self.assert_scored_alike(report, evaluate_bundle(report.bundle, table))

    def test_evaluate_bundle_fresh_store_is_all_validation(self):
        table = synthetic_table()
        config = ExperimentConfig(family="gnb", seed=4)
        report = run_on_features(table, config)
        fresh = synthetic_table(seed=77, prefix="new_")
        evaluated = evaluate_bundle(report.bundle, fresh)
        assert evaluated.train_accuracy is None
        assert evaluated.n_val_rows == len(fresh)

    def test_scaler_none(self):
        table = synthetic_table()
        config = ExperimentConfig(family="knn", params={"k": 1}, scaler="none", seed=1)
        report = run_on_features(table, config)
        assert report.bundle.scaler is None


class TestKFold:
    def test_folds_partition_and_stratify(self):
        labels = np.repeat(["a", "b", "c"], 12)
        folds = kfold_indices(labels, 4, seed=0)
        assert len(folds) == 4
        all_val = np.concatenate([val for _, val in folds])
        np.testing.assert_array_equal(np.sort(all_val), np.arange(36))
        for train_idx, val_idx in folds:
            assert not set(train_idx) & set(val_idx)
            assert len(train_idx) + len(val_idx) == 36
            for cls in "abc":
                assert np.sum(labels[val_idx] == cls) == 3

    def test_deterministic(self):
        labels = np.repeat(["a", "b"], 10)
        one = kfold_indices(labels, 5, seed=2)
        two = kfold_indices(labels, 5, seed=2)
        for (t1, v1), (t2, v2) in zip(one, two):
            np.testing.assert_array_equal(v1, v2)

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            kfold_indices(["a", "a", "b", "b", "b"], 3, seed=0)

    def test_bad_fold_count(self):
        with pytest.raises(ValidationError):
            kfold_indices(["a", "a", "b", "b"], 1, seed=0)


class TestGridSearchCv:
    def test_matches_manual_fold_oracle(self):
        rng = np.random.default_rng(21)
        X = np.vstack([rng.normal(-2, 1.2, (15, 2)), rng.normal(2, 1.2, (15, 2))])
        y = np.array(["lo"] * 15 + ["hi"] * 15)
        grid = {"k": [1, 3, 5]}
        folds = kfold_indices(y, 3, seed=4)
        best, rows, _ = grid_search("knn", grid, X, y, folds)

        from raga_moodkit.models import make_classifier

        expected_best, expected_accuracy = None, -1.0
        for point in grid_points(grid):
            scores = []
            for train_idx, val_idx in folds:
                model = make_classifier("knn", **point).fit(X[train_idx], y[train_idx])
                scores.append(float(np.mean(model.predict(X[val_idx]) == y[val_idx])))
            mean_accuracy = float(np.mean(scores))
            if mean_accuracy > expected_accuracy:
                expected_best, expected_accuracy = point, mean_accuracy
        assert best == expected_best
        assert len(rows) == 3
        chosen = [r for r in rows if r.params == best][0]
        assert chosen.validation_accuracy == pytest.approx(expected_accuracy)

    def test_run_on_features_with_cv(self):
        table = synthetic_table()
        config = ExperimentConfig(
            family="knn", grid={"k": [1, 3]}, seed=1, cv=2
        )
        report = run_on_features(table, config)
        assert report.grid_rows is not None and len(report.grid_rows) == 2
        assert report.config["cv"] == 2
        assert report.validation_accuracy == 1.0

    def test_bad_cv_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(cv=1)


class TestHoldoutWinnerReuse:
    """A holdout search already fit its winner on the train side; the run
    keeps that model. A k-fold search refits the winner on the whole train
    side."""

    GRID = {"C": [1.0, 10.0], "gamma": [0.01, 0.1]}

    @staticmethod
    def _count_fits(monkeypatch):
        fits = []
        fit = RbfSvmClassifier.fit

        def counted(self, X, y):
            fits.append(self.get_params())
            return fit(self, X, y)

        monkeypatch.setattr(RbfSvmClassifier, "fit", counted)
        return fits

    @staticmethod
    def _table():
        return synthetic_table(classes=("Karuna", "Veera", "Shantha"), seed=5)

    def test_holdout_fits_each_point_once(self, monkeypatch):
        fits = self._count_fits(monkeypatch)
        run_on_features(self._table(), ExperimentConfig(family="svm", grid=self.GRID, seed=2))
        assert len(fits) == len(grid_points(self.GRID)) * 1

    def test_cv_refits_the_winner(self, monkeypatch):
        fits = self._count_fits(monkeypatch)
        report = run_on_features(
            self._table(), ExperimentConfig(family="svm", grid=self.GRID, seed=2, cv=3)
        )
        assert len(fits) == len(grid_points(self.GRID)) * 3 + 1
        assert {k: fits[-1][k] for k in self.GRID} == {k: report.params[k] for k in self.GRID}

    def test_holdout_bundle_equals_explicit_refit(self):
        table = self._table()
        config = ExperimentConfig(family="svm", grid=self.GRID, seed=2)
        report = run_on_features(table, config)
        train_idx, _ = split_table(table, config.split_level, config.val_fraction, config.seed)
        X = FeatureScaler(kind=config.scaler).fit(table.X[train_idx]).transform(table.X)
        refit = make_classifier("svm", **report.params).fit(X[train_idx], table.labels[train_idx])
        explicit = dataclasses.replace(report.bundle, model=refit)
        assert json.dumps(explicit.to_dict(), sort_keys=True) == json.dumps(
            report.bundle.to_dict(), sort_keys=True
        )


class TestConfigParams:
    """Parameter names and value types are checked against the family's
    constructor when the configuration is made, before any fit."""

    @pytest.mark.parametrize(
        "family, params, grid",
        [
            ("knn", {"foo": 1}, None),
            ("knn", {}, {"bogus": [1, 2]}),
            ("knn", {"k": "abc"}, None),
            ("svm", {"C": "abc"}, None),
            ("svm", {}, {"gamma": [0.1, "x"]}),
            ("mlp", {"hidden": ("a", "b", "c", "d")}, None),
            ("mlp", {"hidden": 64}, None),
            ("forest", {"max_depth": 2.5}, None),
        ],
    )
    def test_rejected(self, family, params, grid):
        with pytest.raises(ValidationError):
            ExperimentConfig(family=family, params=params, grid=grid)

    @pytest.mark.parametrize(
        "family, params, grid",
        [
            ("svm", {"C": 10, "gamma": 0.1}, {"C": [1, 10.0]}),
            ("knn", {"metric": "euclidean"}, {"k": [1, 3]}),
            ("mlp", {"hidden": (8, 8, 4, 4)}, None),
            ("mlp", {"hidden": [8, 8, 4, 4]}, None),
            ("forest", {"max_depth": None}, {"max_depth": [2, None]}),
        ],
    )
    def test_accepted(self, family, params, grid):
        ExperimentConfig(family=family, params=params, grid=grid)

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(family="hmm")


NAN, INF = float("nan"), float("inf")

#: One invalid value per row, for each settings dataclass: wrong types (a
#: bool or a non-integral float for an int), NaN and infinity, values
#: outside a range or a closed set, and broken relations between fields.
INVALID_SETTINGS = [
    (MfccConfig, {"hop": True}),
    (MfccConfig, {"hop": 0}),
    (MfccConfig, {"hop": 4096}),
    (MfccConfig, {"n_filters": 2.5, "n_coeffs": 1}),
    (MfccConfig, {"n_coeffs": 41}),
    (MfccConfig, {"sample_rate": 22050.5}),
    (MfccConfig, {"fft_size": 2048.0}),
    (MfccConfig, {"fft_size": 1000}),
    (MfccConfig, {"f_low": NAN}),
    (MfccConfig, {"f_low": 12000.0}),
    (MfccConfig, {"log_floor": 0.0}),
    (MfccConfig, {"log_floor": NAN}),
    (MfccConfig, {"log_floor": INF}),
    (SegmentPlan, {"cuts": ()}),
    (SegmentPlan, {"cuts": ((0, 0),)}),
    (SegmentPlan, {"cuts": ((NAN, 5),)}),
    (SegmentPlan, {"cuts": ((0, INF),)}),
    (SegmentPlan, {"cuts": ((-1, 10),)}),
    (SegmentPlan, {"cuts": ((0, 1, 2),)}),
    (SegmentPlan, {"cuts": "abc"}),
    (SyntheticSpec, {"files_per_class": True}),
    (SyntheticSpec, {"files_per_class": 0}),
    (SyntheticSpec, {"duration_s": INF}),
    (SyntheticSpec, {"duration_s": 1e-9}),
    (SyntheticSpec, {"seed": -1}),
    (ExperimentConfig, {"seed": 1.5}),
    (ExperimentConfig, {"seed": True}),
    (ExperimentConfig, {"seed": -1}),
    (ExperimentConfig, {"cv": 2.5}),
    (ExperimentConfig, {"cv": 1}),
    (ExperimentConfig, {"scaler": "robust"}),
    (ExperimentConfig, {"split_level": "song"}),
    (ExperimentConfig, {"val_fraction": NAN}),
    (ExperimentConfig, {"val_fraction": 1.0}),
    (ExperimentConfig, {"grid": {}}),
    (ExperimentConfig, {"cv": 3}),
]


@pytest.mark.parametrize(
    "cls, kwargs", INVALID_SETTINGS,
    ids=[f"{cls.__name__}-{'-'.join(f'{k}={v}' for k, v in kw.items())}" for cls, kw in INVALID_SETTINGS],
)
def test_invalid_setting_is_refused(cls, kwargs):
    with pytest.raises(ValidationError) as refused:
        cls(**kwargs)
    # a failed rule is named by its text, never by a typing repr
    assert "typing" not in str(refused.value)


def test_plan_cut_rules_are_named():
    with pytest.raises(ValidationError, match=r"finite and >= 0.*finite and > 0"):
        SegmentPlan(((NAN, 5),))


def _report(family, params, validation_accuracy):
    return ExperimentReport(
        config={"plan": [[0, 60]], "scaler": "zscore"},
        family=family,
        params=params,
        train_accuracy=1.0,
        validation_accuracy=validation_accuracy,
        classes=["a", "b"],
        confusion_matrix=[[1, 0], [0, 1]],
        per_class={},
        n_train_rows=8,
        n_val_rows=2,
    )


class TestSelectFinalModel:
    def test_knn_k1_rejected_in_favor_of_svm(self):
        knn = _report("knn", {"k": 1, "metric": "manhattan"}, 0.84)
        svm = _report("svm", {"C": 10, "gamma": 0.1}, 0.77)
        assert select_final_model([knn, svm]) is svm

    def test_single_eligible(self):
        only = _report("forest", {"n_estimators": 10}, 0.5)
        assert select_final_model([only]) is only

    def test_all_k1_raises(self):
        with pytest.raises(NoEligibleModel):
            select_final_model([_report("knn", {"k": 1}, 0.9), _report("knn", {"k": 1}, 0.8)])

    def test_knn_with_larger_k_is_eligible(self):
        knn3 = _report("knn", {"k": 3}, 0.84)
        svm = _report("svm", {"C": 10}, 0.77)
        assert select_final_model([knn3, svm]) is knn3

    def test_tie_prefers_fewer_params(self):
        lean = _report("svm", {"C": 10}, 0.8)
        verbose = _report("svm", {"C": 10, "gamma": 0.1, "tol": 1e-3}, 0.8)
        assert select_final_model([verbose, lean]) is lean

    def test_tie_prefers_family_order(self):
        knn = _report("knn", {"k": 3}, 0.8)
        gnb = _report("gnb", {"x": 1}, 0.8)
        assert select_final_model([gnb, knn]) is knn  # knn earlier in family order

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            select_final_model([])
