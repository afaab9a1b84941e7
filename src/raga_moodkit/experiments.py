"""Metrics, manifest-wide feature extraction, holdout and k-fold grid
search, the experiment runner and final-model policy.

An experiment is: cut segments -> MFCC features -> split -> scale -> fit ->
evaluate. Splitting happens at the *file* level by default, before the
segment expansion, so overlapping cuts of one recording can never straddle
train and validation; ``split_level="segment"`` reproduces the leakier
protocol for comparison.
"""
from __future__ import annotations

import functools
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import DEFAULT_BI_SAMPLE_PLAN, AudioBuffer, SegmentPlan, bi_sample, read_wav, resample, to_mono
from .bundle import ModelBundle
from .catalog import RASAS, FeatureScaler, SongRecord, stratified_indices
from .errors import (
    ClassTooSmall,
    DataError,
    EmptyInput,
    MoodkitError,
    NoEligibleModel,
    StartBeyondEnd,
    ValidationError,
)
from .mfcc import MfccConfig, segment_features
from .models import FAMILY_ORDER, make_classifier
from .store import FeatureTable, segment_id

SPLIT_LEVELS = ("file", "segment")
SCALER_KINDS = (*FeatureScaler.KINDS, "none")


# --- metrics -------------------------------------------------------------------

def accuracy(predictions, labels) -> float:
    predictions = np.asarray(predictions, dtype=str)
    labels = np.asarray(labels, dtype=str)
    if len(predictions) == 0:
        raise EmptyInput("accuracy over zero predictions")
    if len(predictions) != len(labels):
        raise ValidationError(f"{len(predictions)} predictions vs {len(labels)} labels")
    return float(np.mean(predictions == labels))


def confusion_matrix(predictions, labels, classes=RASAS) -> np.ndarray:
    """Counts with rows = true class, columns = predicted class."""
    predictions = np.asarray(predictions, dtype=str)
    labels = np.asarray(labels, dtype=str)
    if len(predictions) == 0:
        raise EmptyInput("confusion matrix over zero predictions")
    if len(predictions) != len(labels):
        raise ValidationError(f"{len(predictions)} predictions vs {len(labels)} labels")
    classes = [str(c) for c in classes]
    index = {c: i for i, c in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for true, predicted in zip(labels, predictions):
        if true not in index or predicted not in index:
            raise ValidationError(f"label outside class list: {true!r} -> {predicted!r}")
        matrix[index[true], index[predicted]] += 1
    return matrix


def precision_recall(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-class precision and recall; undefined entries are 0."""
    matrix = np.asarray(matrix, dtype=np.float64)
    diag = np.diag(matrix)
    predicted = matrix.sum(axis=0)
    actual = matrix.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(predicted > 0, diag / predicted, 0.0)
        recall = np.where(actual > 0, diag / actual, 0.0)
    return precision, recall


# --- grid search ---------------------------------------------------------------

@dataclass
class GridRow:
    params: dict
    validation_accuracy: float | None
    error: str | None = None


def grid_points(grid: dict) -> list[dict]:
    """Cartesian product in lexicographic order: parameter names sorted,
    each value list in its given order."""
    names = sorted(grid)
    points = []
    for combo in itertools.product(*[grid[name] for name in names]):
        points.append(dict(zip(names, combo)))
    return points


def grid_search(family: str, grid: dict, X, y, folds, base_params: dict | None = None):
    """Score every grid point by its mean accuracy over ``folds`` and keep the best.

    ``folds`` is a list of ``(train_idx, val_idx)`` row-index pairs into
    ``X``/``y``; a holdout search is a single fold. Failing points become
    rows with an error message instead of aborting the search. Ties go to
    the earliest point in grid order. Returns ``(best_params, rows)``.
    """
    if not grid:
        raise ValidationError("grid must be non-empty")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=str)
    rows: list[GridRow] = []
    best_params = None
    best_accuracy = -1.0
    for point in grid_points(grid):
        params = dict(base_params or {})
        params.update(point)
        try:
            fold_scores = []
            for train_idx, val_idx in folds:
                model = make_classifier(family, **params)
                model.fit(X[train_idx], y[train_idx])
                fold_scores.append(accuracy(model.predict(X[val_idx]), y[val_idx]))
            mean_accuracy = float(np.mean(fold_scores))
        except MoodkitError as exc:
            rows.append(GridRow(params=point, validation_accuracy=None, error=str(exc)))
            continue
        rows.append(GridRow(params=point, validation_accuracy=mean_accuracy))
        if mean_accuracy > best_accuracy:
            best_accuracy = mean_accuracy
            best_params = point
    if best_params is None:
        raise MoodkitError(
            "every grid point failed: " + "; ".join(row.error or "?" for row in rows)
        )
    return best_params, rows


def kfold_indices(labels, n_folds: int, seed: int):
    """Stratified k-fold partition: per class, seeded shuffle then round-robin.

    Returns a list of ``(train_idx, val_idx)`` pairs, one per fold. Every
    class must have at least ``n_folds`` members so each fold's training
    side keeps the full label set.
    """
    if n_folds < 2:
        raise ValidationError(f"n_folds must be >= 2, got {n_folds}")
    labels = np.asarray(labels).astype(str)
    rng = np.random.default_rng(seed)
    fold_members: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in sorted(set(labels.tolist())):
        members = np.flatnonzero(labels == cls)
        if len(members) < n_folds:
            raise ClassTooSmall(
                f"class {cls!r} has {len(members)} row(s); need at least {n_folds} for {n_folds}-fold"
            )
        for slot, row in enumerate(rng.permutation(members)):
            fold_members[slot % n_folds].append(int(row))
    folds = []
    everything = set(range(len(labels)))
    for val in fold_members:
        val_idx = np.array(sorted(val), dtype=np.int64)
        train_idx = np.array(sorted(everything - set(val)), dtype=np.int64)
        folds.append((train_idx, val_idx))
    return folds


# --- experiment runner -----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """How to split, scale and fit. The segment plan and MFCC settings are
    not here: they belong to the feature table, and ``run_on_features``
    records the table's."""

    family: str = "svm"
    params: dict = field(default_factory=dict)
    grid: dict | None = None
    scaler: str = "zscore"
    split_level: str = "file"
    val_fraction: float = 0.2
    seed: int = 0
    cv: int | None = None  # when set, grid selection runs k-fold inside train

    def __post_init__(self):
        if self.split_level not in SPLIT_LEVELS:
            raise ValidationError(f"split_level must be one of {SPLIT_LEVELS}, got {self.split_level!r}")
        if self.scaler not in SCALER_KINDS:
            raise ValidationError(f"scaler must be one of {SCALER_KINDS}, got {self.scaler!r}")
        if self.grid is not None and not self.grid:
            raise ValidationError("grid, when given, must be non-empty")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.cv is not None and self.cv < 2:
            raise ValidationError(f"cv must be >= 2 folds, got {self.cv}")
        # the family's fields check every name, type and allowed value
        model = make_classifier(self.family, **self.params)
        for name, values in (self.grid or {}).items():
            for value in values:
                model.set_params(**{name: value})

    def describe(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "grid": None if self.grid is None else {k: list(v) for k, v in self.grid.items()},
            "scaler": self.scaler,
            "split_level": self.split_level,
            "val_fraction": self.val_fraction,
            "seed": self.seed,
            "cv": self.cv,
        }


@dataclass
class ExperimentReport:
    """One result row: configuration echo, accuracies and error structure.

    ``wall_clock_s`` and the fitted ``bundle`` stay in memory only; the JSON
    form is restricted to deterministic fields so identical seeds reproduce
    identical artifacts.
    """

    config: dict
    family: str
    params: dict
    train_accuracy: float | None
    validation_accuracy: float
    classes: list
    confusion: list
    per_class: dict
    n_train_rows: int
    n_val_rows: int
    grid_rows: list | None = None
    bundle: ModelBundle | None = None
    wall_clock_s: float = 0.0

    def to_json_dict(self) -> dict:
        payload = {
            "config": self.config,
            "family": self.family,
            "params": self.params,
            "train_accuracy": self.train_accuracy,
            "validation_accuracy": self.validation_accuracy,
            "classes": self.classes,
            "confusion_matrix": self.confusion,
            "per_class": self.per_class,
            "n_train_rows": self.n_train_rows,
            "n_val_rows": self.n_val_rows,
        }
        if self.grid_rows is not None:
            payload["grid_rows"] = [
                {
                    "params": row.params,
                    "validation_accuracy": row.validation_accuracy,
                    "error": row.error,
                }
                for row in self.grid_rows
            ]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def markdown_row(self) -> str:
        cuts = self.config.get("plan")
        if cuts:
            plan = SegmentPlan(tuple(tuple(c) for c in cuts))
            start = f"{plan.cuts[0][0]:g}" if len(plan.cuts) == 1 else plan.describe()
            duration = f"{sum(d for _, d in plan.cuts):g}"
        else:
            start = duration = "?"
        params = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items())) or "defaults"
        scaler = self.config.get("scaler", "un")
        return (
            f"| 1 | {self.family} | {start} | {duration} "
            f"| {self.validation_accuracy:.4f} | {scaler} scaled, {params} |"
        )

    def to_markdown(self) -> str:
        header = (
            "| Sl No | Algorithm | Song Start Point | Song Duration "
            "| Validation Classification Accuracy | Model Architecture / Parameters |\n"
            "|---|---|---|---|---|---|\n"
        )
        return header + self.markdown_row() + "\n"


def resolve_audio_path(record: SongRecord, base_dir) -> Path:
    path = Path(record.path)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    return path


def song_features(
    buffer: AudioBuffer, plan: SegmentPlan, config: MfccConfig, partial: bool = False
) -> np.ndarray:
    """Mix down, resample, cut and featurize one decoded song: one row of
    mean coefficients per cut of ``plan``, in plan order.

    With ``partial``, cuts that start past the end of the audio are left out
    instead of failing; at least one must remain.
    """
    buffer = resample(to_mono(buffer), config.sample_rate)
    if partial:
        cuts = tuple((s, d) for s, d in plan.cuts if s < buffer.duration_s)
        if not cuts:
            raise StartBeyondEnd(
                f"file of {buffer.duration_s:.1f}s is shorter than every planned cut"
            )
        plan = SegmentPlan(cuts)
    return np.vstack([segment_features(seg, config).values for seg in bi_sample(buffer, plan)])


def extract_song_rows(
    record: SongRecord, plan: SegmentPlan, config: MfccConfig, base_dir
) -> list:
    """Decode and featurize one song: ``(segment_id, rasa, values)`` triples,
    one per cut of the plan."""
    rows = song_features(read_wav(resolve_audio_path(record, base_dir)), plan, config)
    return [(segment_id(record.id, i), record.rasa.value, row) for i, row in enumerate(rows)]


def extract_features(
    records: list[SongRecord],
    plan: SegmentPlan = DEFAULT_BI_SAMPLE_PLAN,
    config: MfccConfig = MfccConfig(),
    base_dir=None,
    jobs: int = 1,
    strict: bool = True,
) -> tuple[FeatureTable, list]:
    """Featurize every cut of every song; returns ``(table, failures)``.

    With ``jobs > 1`` the songs are spread over that many worker processes;
    rows keep manifest order either way. A song that cannot be read or
    featurized is a failure: under ``strict`` one ``DataError`` names every
    failed song id and path, otherwise the song is skipped and reported in
    ``failures`` as a ``(song_id, message)`` pair.
    """
    calls = [functools.partial(extract_song_rows, r, plan, config, base_dir) for r in records]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            calls = [pool.submit(call).result for call in calls]
    rows: list = []
    failed: list = []
    for record, call in zip(records, calls):
        try:
            rows.extend(call())
        except (MoodkitError, OSError) as exc:
            failed.append((record, str(exc)))
    if failed and strict:
        raise DataError(f"{len(failed)} file(s) failed: " + "; ".join(
            f"{record.id} ({resolve_audio_path(record, base_dir)}): {error}" for record, error in failed
        ))
    table = FeatureTable(
        segment_ids=[r[0] for r in rows],
        labels=np.asarray([r[1] for r in rows], dtype=str),
        X=np.vstack([r[2] for r in rows]) if rows else np.empty((0, config.n_coeffs)),
        mfcc=config,
        plan=plan,
    )
    return table, [(record.id, error) for record, error in failed]


def split_table(table: FeatureTable, level: str, val_fraction: float, seed: int):
    """Stratified train/validation row indexes at file or segment level.

    File-level splitting assigns whole songs to a side before the segment
    expansion, so no source recording leaks across the boundary.
    """
    if level == "segment":
        return stratified_indices(table.labels, val_fraction, seed)
    song_ids = table.song_ids
    unique_songs: list[str] = []
    song_label: dict[str, str] = {}
    for sid, label in zip(song_ids, table.labels):
        if sid not in song_label:
            unique_songs.append(sid)
            song_label[sid] = str(label)
    _, val_songs = stratified_indices([song_label[s] for s in unique_songs], val_fraction, seed)
    val_set = {unique_songs[i] for i in val_songs}
    row_is_val = np.array([sid in val_set for sid in song_ids])
    return np.flatnonzero(~row_is_val), np.flatnonzero(row_is_val)


def _scored_report(predict, X, y, train_idx, val_idx, classes, **fields) -> ExperimentReport:
    """Accuracy on both sides of a split, and the confusion matrix and
    per-class precision/recall of the validation side, over ``classes``."""
    train_accuracy = accuracy(predict(X[train_idx]), y[train_idx]) if len(train_idx) else None
    val_predictions = predict(X[val_idx])
    confusion = confusion_matrix(val_predictions, y[val_idx], classes=classes)
    precision, recall = precision_recall(confusion)
    return ExperimentReport(
        train_accuracy=train_accuracy,
        validation_accuracy=accuracy(val_predictions, y[val_idx]),
        classes=classes,
        confusion=confusion.tolist(),
        per_class={
            cls: {"precision": float(p), "recall": float(r)}
            for cls, p, r in zip(classes, precision, recall)
        },
        n_train_rows=len(train_idx),
        n_val_rows=len(val_idx),
        **fields,
    )


def run_on_features(table: FeatureTable, config: ExperimentConfig) -> ExperimentReport:
    """Split, scale, fit (or grid-search) and evaluate on extracted rows.

    The report's and the bundle's ``config`` record the table's segment plan
    and MFCC settings, so a served model cuts and featurizes audio the way
    its training rows were made.
    """
    started = time.perf_counter()
    train_idx, val_idx = split_table(table, config.split_level, config.val_fraction, config.seed)
    if len(val_idx) == 0:
        raise ValidationError("validation side of the split is empty; raise val_fraction")
    scaler = None
    X, y = table.X, table.labels
    if config.scaler != "none":
        scaler = FeatureScaler(kind=config.scaler).fit(X[train_idx])
        X = scaler.transform(X)

    params = dict(config.params)
    grid_rows = None
    if config.grid is not None:
        folds = [(train_idx, val_idx)]
        if config.cv is not None:
            folds = [
                (train_idx[inner], train_idx[held_out])
                for inner, held_out in kfold_indices(y[train_idx], config.cv, config.seed)
            ]
        best, grid_rows = grid_search(config.family, config.grid, X, y, folds, base_params=params)
        params.update(best)
    model = make_classifier(config.family, **params)
    model.fit(X[train_idx], y[train_idx])

    described = {**config.describe(), "params": params, "mfcc": table.mfcc.as_dict(),
                 "plan": [list(cut) for cut in table.plan.cuts]}
    report = _scored_report(
        model.predict, X, y, train_idx, val_idx, sorted(set(y.tolist())),
        config=described, family=config.family, params=params, grid_rows=grid_rows,
    )
    roles = {table.segment_ids[i]: "train" for i in train_idx}
    roles.update((table.segment_ids[i], "val") for i in val_idx)
    report.bundle = ModelBundle(
        model=model,
        scaler=scaler,
        feature_fingerprint=table.fingerprint,
        split={
            "level": config.split_level,
            "val_fraction": config.val_fraction,
            "seed": config.seed,
            "roles": roles,
        },
        metrics={
            "train_accuracy": report.train_accuracy,
            "validation_accuracy": report.validation_accuracy,
        },
        config=described,
    )
    report.wall_clock_s = time.perf_counter() - started
    return report


def evaluate_bundle(bundle: ModelBundle, table: FeatureTable) -> ExperimentReport:
    """Score an existing bundle against a feature store, without refitting.

    When the bundle's recorded split covers every row of the store, rows are
    evaluated on their recorded side (so re-evaluating the training store
    reproduces the stored accuracies); otherwise every row counts as
    validation and the train side is reported as absent.
    """
    started = time.perf_counter()
    bundle.check_fingerprint(table.fingerprint)
    roles = bundle.split.get("roles", {})
    ids = table.segment_ids
    if roles and all(seg in roles for seg in ids):
        train_idx = np.array([i for i, seg in enumerate(ids) if roles[seg] == "train"], dtype=np.int64)
        val_idx = np.array([i for i, seg in enumerate(ids) if roles[seg] != "train"], dtype=np.int64)
    else:
        train_idx = np.empty(0, dtype=np.int64)
        val_idx = np.arange(len(ids), dtype=np.int64)
    if len(val_idx) == 0:
        raise ValidationError("no validation rows to evaluate")

    classes = sorted(set(table.labels.tolist()) | set(str(c) for c in bundle.model.classes_))
    report = _scored_report(
        bundle.predict, table.X, table.labels, train_idx, val_idx, classes,
        config=dict(bundle.config), family=bundle.family,
        params=bundle.config.get("params", {}), bundle=bundle,
    )
    report.wall_clock_s = time.perf_counter() - started
    return report


# --- final-model policy ----------------------------------------------------------

def _is_eligible(report: ExperimentReport) -> bool:
    # Single-neighbour lookups memorize the training set; they are excluded
    # from final-model selection as non-robust.
    if report.family == "knn" and int(report.params.get("k", 0)) == 1:
        return False
    return True


def select_final_model(reports: list[ExperimentReport]) -> ExperimentReport:
    """Best validation accuracy among eligible reports.

    KNN with k=1 is never eligible. Ties prefer fewer hyperparameters, then
    the earliest family in the canonical family order, then report order.
    """
    if not reports:
        raise ValidationError("no reports to select from")
    eligible = [r for r in reports if _is_eligible(r)]
    if not eligible:
        raise NoEligibleModel("all candidates are single-neighbour lookups")

    def rank(report: ExperimentReport):
        family_rank = (
            FAMILY_ORDER.index(report.family) if report.family in FAMILY_ORDER else len(FAMILY_ORDER)
        )
        return (-report.validation_accuracy, len(report.params), family_rank)

    best = min(eligible, key=rank)
    return best
