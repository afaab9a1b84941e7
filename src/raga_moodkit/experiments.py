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
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Annotated, Literal

import numpy as np

from .audio import DEFAULT_BI_SAMPLE_PLAN, AudioBuffer, SegmentPlan, bi_sample, read_wav, resample
from .base import CheckedFields, NonNegativeInt
from .bundle import ModelBundle
from .catalog import RASAS, FeatureScaler, ScalerKind, SongRecord
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

SplitLevel = Literal["file", "segment"]
ScalerChoice = Literal[ScalerKind, "none"]
SPLIT_LEVELS = typing.get_args(SplitLevel)
SCALER_KINDS = typing.get_args(ScalerChoice)


# --- metrics -------------------------------------------------------------------

def _paired(predictions, labels, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and labels as equally long, non-empty string arrays."""
    predictions = np.asarray(predictions, dtype=str)
    labels = np.asarray(labels, dtype=str)
    if len(predictions) == 0:
        raise EmptyInput(f"{metric} over zero predictions")
    if len(predictions) != len(labels):
        raise ValidationError(f"{len(predictions)} predictions vs {len(labels)} labels")
    return predictions, labels


def accuracy(predictions, labels) -> float:
    predictions, labels = _paired(predictions, labels, "accuracy")
    return float(np.mean(predictions == labels))


def confusion_matrix(predictions, labels, classes=RASAS) -> np.ndarray:
    """Counts with rows = true class, columns = predicted class."""
    predictions, labels = _paired(predictions, labels, "confusion matrix")
    classes = np.asarray([str(c) for c in classes])
    # one-hot rows over classes; their product counts every (true, predicted) pair
    true = labels[:, None] == classes
    predicted = predictions[:, None] == classes
    outside = ~(true.any(axis=1) & predicted.any(axis=1))
    if outside.any():
        row = int(np.argmax(outside))
        raise ValidationError(f"label outside class list: {str(labels[row])!r} -> {str(predictions[row])!r}")
    return true.T.astype(np.int64) @ predicted.astype(np.int64)


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
    the earliest point in grid order. Returns ``(best_params, rows,
    best_models)``, where ``best_models`` are the winning point's fitted
    models, one per fold.
    """
    if not grid:
        raise ValidationError("grid must be non-empty")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=str)
    rows: list[GridRow] = []
    best_params = None
    best_models: list = []
    best_accuracy = -1.0
    for point in grid_points(grid):
        params = dict(base_params or {})
        params.update(point)
        try:
            fold_scores = []
            models = []
            for train_idx, val_idx in folds:
                model = make_classifier(family, **params)
                model.fit(X[train_idx], y[train_idx])
                models.append(model)
                fold_scores.append(accuracy(model.predict(X[val_idx]), y[val_idx]))
            mean_accuracy = float(np.mean(fold_scores))
        except MoodkitError as exc:
            rows.append(GridRow(params=point, validation_accuracy=None, error=str(exc)))
            continue
        rows.append(GridRow(params=point, validation_accuracy=mean_accuracy))
        if mean_accuracy > best_accuracy:
            best_accuracy = mean_accuracy
            best_params = point
            best_models = models
    if best_params is None:
        raise MoodkitError(
            "every grid point failed: " + "; ".join(row.error or "?" for row in rows)
        )
    return best_params, rows, best_models


# --- partitions ------------------------------------------------------------------
# The holdout and the k-fold folds split whole groups, one label per group:
# songs at the file level and rows at the segment level.

def _shuffled_classes(labels, seed: int, need: int) -> typing.Iterator[np.ndarray]:
    """Each class's positions in ``labels``, in sorted class order, shuffled in
    turn by one generator seeded with ``seed``; a class needs ``need`` members."""
    labels = np.asarray(labels).astype(str)
    rng = np.random.default_rng(seed)
    for cls in sorted(set(labels.tolist())):
        members = np.flatnonzero(labels == cls)
        if len(members) < need:
            raise ClassTooSmall(f"class {cls!r} has {len(members)} member(s) to split (songs at split level "
                                f"'file', rows at 'segment'); need at least {need}")
        yield rng.permutation(members)


def stratified_indices(labels, val_fraction: float, seed: int):
    """Stratified train/validation split of the positions of ``labels``.

    Validation takes the first ``round(fraction * class_size)`` of each
    class's shuffle, clamped so at least one member stays in training.
    Returns sorted ``(train_idx, val_idx)`` arrays partitioning ``range(n)``.
    """
    if not 0 < val_fraction < 1:
        raise ValidationError(f"val_fraction must be in (0, 1), got {val_fraction}")
    is_val = np.zeros(len(labels), dtype=bool)
    for members in _shuffled_classes(labels, seed, 2):
        is_val[members[: min(int(round(val_fraction * len(members))), len(members) - 1)]] = True
    return np.flatnonzero(~is_val), np.flatnonzero(is_val)


def kfold_indices(labels, n_folds: int, seed: int):
    """Stratified k-fold partition of the positions of ``labels``: each
    class's shuffle is dealt round-robin.

    Returns a list of ``(train_idx, val_idx)`` pairs, one per fold. Every
    class must have at least ``n_folds`` members so each fold's training
    side keeps the full label set.
    """
    if n_folds < 2:
        raise ValidationError(f"n_folds must be >= 2, got {n_folds}")
    fold = np.empty(len(labels), dtype=np.int64)
    for members in _shuffled_classes(labels, seed, n_folds):
        fold[members] = np.arange(len(members)) % n_folds
    return [(np.flatnonzero(fold != k), np.flatnonzero(fold == k)) for k in range(n_folds)]


def _groups(table: FeatureTable, level: str) -> tuple[np.ndarray, np.ndarray]:
    """``(first_rows, group_of_row)`` of the groups a split keeps whole:
    songs at the file level, rows at the segment level."""
    if level == "segment":
        rows = np.arange(len(table))
        return rows, rows
    return table.songs()


def split_table(table: FeatureTable, level: str, val_fraction: float, seed: int):
    """Stratified train/validation row indexes at file or segment level.

    File-level splitting assigns whole songs to a side, so no source
    recording leaks across the boundary, and a class needs two songs.
    """
    first_rows, group_of_row = _groups(table, level)
    _, val_groups = stratified_indices(table.labels[first_rows], val_fraction, seed)
    is_val = np.isin(group_of_row, val_groups)
    return np.flatnonzero(~is_val), np.flatnonzero(is_val)


# --- experiment runner -----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig(CheckedFields):
    """How to split, scale and fit. The segment plan and MFCC settings are
    not here: they belong to the feature table, and ``run_on_features``
    records the table's."""

    family: str = "svm"
    params: dict = field(default_factory=dict)
    grid: Annotated[dict | None, ("None or non-empty", lambda v: v is None or len(v) > 0)] = None
    scaler: ScalerChoice = "zscore"
    split_level: SplitLevel = "file"
    val_fraction: Annotated[float, ("in (0, 1)", lambda v: 0 < v < 1)] = 0.2
    seed: NonNegativeInt = 0
    # when set, grid selection runs k-fold inside train
    cv: Annotated[int | None, ("None or >= 2", lambda v: v is None or v >= 2)] = None

    def __post_init__(self):
        super().__post_init__()
        if self.cv is not None and self.grid is None:
            raise ValidationError(f"cv={self.cv} selects among grid points; it needs a grid")
        # the family's fields check every name, type and allowed value
        model = make_classifier(self.family, **self.params)
        for name, values in (self.grid or {}).items():
            for value in values:
                model.set_params(**{name: value})


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
    confusion_matrix: list
    per_class: dict
    n_train_rows: int
    n_val_rows: int
    grid_rows: list | None = None
    bundle: ModelBundle | None = None
    wall_clock_s: float = 0.0

    def to_json_dict(self) -> dict:
        payload = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("bundle", "wall_clock_s")
        }
        if self.grid_rows is None:
            del payload["grid_rows"]
        else:
            payload["grid_rows"] = [asdict(row) for row in self.grid_rows]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def markdown_row(self) -> str:
        plan = SegmentPlan(self.config["plan"])
        start = f"{plan.cuts[0][0]:g}" if len(plan.cuts) == 1 else plan.describe()
        duration = f"{sum(d for _, d in plan.cuts):g}"
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
    """Resample, cut and featurize one decoded mono song: one row of mean
    coefficients per cut of ``plan``, in plan order.

    Callers pass ``read_wav(path)``, which decodes straight to the mono mix.
    With ``partial``, cuts that start past the end of the audio are left out
    instead of failing; at least one must remain.
    """
    buffer = resample(buffer, config.sample_rate)
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


def _pool_calls(calls: list, jobs: int) -> list:
    """One zero-argument callable per call, in order, each giving that call's
    result or raising its exception.

    With ``jobs > 1`` the calls run in that many worker processes, but no
    more than there are calls, since a pool starts every worker at its first
    submit; otherwise each runs here when its callable is called.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(calls))
    if workers <= 1:
        return calls
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [pool.submit(call).result for call in calls]


def extract_features(
    records: list[SongRecord],
    plan: SegmentPlan = DEFAULT_BI_SAMPLE_PLAN,
    config: MfccConfig = MfccConfig(),
    base_dir=None,
    jobs: int = 1,
    strict: bool = True,
) -> tuple[FeatureTable, list]:
    """Featurize every cut of every song; returns ``(table, failures)``.

    With ``jobs > 1`` the songs are spread over up to that many worker
    processes; rows keep manifest order either way. A song that
    cannot be read or featurized is a failure: under ``strict`` one
    ``DataError`` names every failed song id and path, otherwise the song
    is skipped and reported in ``failures`` as a ``(song_id, message)``
    pair.
    """
    calls = _pool_calls(
        [functools.partial(extract_song_rows, r, plan, config, base_dir) for r in records], jobs
    )
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
    model = None
    if config.grid is not None:
        folds = [(train_idx, val_idx)]
        if config.cv is not None:
            # k-fold over the train side's groups, so no fold splits a song at the file level
            first_rows, group_of_row = _groups(table, config.split_level)
            train_groups = np.unique(group_of_row[train_idx])
            folds = []
            for _, held_out in kfold_indices(y[first_rows[train_groups]], config.cv, config.seed):
                held = np.isin(group_of_row[train_idx], train_groups[held_out])
                folds.append((train_idx[~held], train_idx[held]))
        best, grid_rows, fold_models = grid_search(
            config.family, config.grid, X, y, folds, base_params=params
        )
        params.update(best)
        if config.cv is None:
            # the holdout search already fit the winner on exactly the train side
            model = fold_models[0]
    if model is None:
        model = make_classifier(config.family, **params)
        model.fit(X[train_idx], y[train_idx])

    described = {**config.get_params(), "params": params, "mfcc": table.mfcc.get_params(),
                 "plan": [list(cut) for cut in table.plan.cuts]}
    roles = {table.segment_ids[i]: "train" for i in train_idx}
    roles.update((table.segment_ids[i], "val") for i in val_idx)
    bundle = ModelBundle(
        model=model,
        scaler=scaler,
        feature_fingerprint=table.mfcc.get_params(),
        split={
            "level": config.split_level,
            "val_fraction": config.val_fraction,
            "seed": config.seed,
            "roles": roles,
        },
        config=described,
    )
    # the stored metrics are the numbers ``evaluate`` gets from this bundle on this table
    report = evaluate_bundle(bundle, table)
    bundle.metrics = {key: getattr(report, key) for key in ("train_accuracy", "validation_accuracy")}
    report.grid_rows = grid_rows
    report.wall_clock_s = time.perf_counter() - started
    return report


def evaluate_bundle(bundle: ModelBundle, table: FeatureTable) -> ExperimentReport:
    """Score an existing bundle against a feature store, without refitting.

    The bundle's ``check_table`` decides whether the store's rows fit the
    model. When the bundle's recorded split covers every row of the store,
    rows are evaluated on their recorded side (so re-evaluating the
    training store reproduces the stored accuracies); otherwise every row
    counts as validation and the train side is reported as absent.
    """
    started = time.perf_counter()
    bundle.check_table(table)
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

    X, y = table.X, table.labels
    classes = sorted(set(y.tolist()) | set(str(c) for c in bundle.model.classes_))
    train_accuracy = accuracy(bundle.predict(X[train_idx]), y[train_idx]) if len(train_idx) else None
    val_predictions = bundle.predict(X[val_idx])
    confusion = confusion_matrix(val_predictions, y[val_idx], classes=classes)
    precision, recall = precision_recall(confusion)
    return ExperimentReport(
        config=dict(bundle.config),
        family=bundle.family,
        params=bundle.config.get("params", {}),
        train_accuracy=train_accuracy,
        validation_accuracy=accuracy(val_predictions, y[val_idx]),
        classes=classes,
        confusion_matrix=confusion.tolist(),
        per_class={
            cls: {"precision": float(p), "recall": float(r)}
            for cls, p, r in zip(classes, precision, recall)
        },
        n_train_rows=len(train_idx),
        n_val_rows=len(val_idx),
        bundle=bundle,
        wall_clock_s=time.perf_counter() - started,
    )


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
