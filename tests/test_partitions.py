"""Property tests of the partition rule behind the holdout split and the
k-fold folds of ``tune --cv``.

Over random class names, song counts, cuts per song and row orders, the
holdout and every fold partition their rows and never split a song at the
file level. The holdout keeps every class in training and gives validation
each class's rounded share of songs (or rows); every fold holds every class
on both sides. The holdout at both levels and the k-fold folds at the
segment level are the same, index for index, as the rule they replace,
which is kept below as the reference. At the file level the folds now keep
songs whole, where the reference dealt rows."""
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raga_moodkit import experiments
from raga_moodkit.audio import DEFAULT_BI_SAMPLE_PLAN
from raga_moodkit.errors import ValidationError
from raga_moodkit.experiments import (
    ExperimentConfig,
    kfold_indices,
    run_on_features,
    split_table,
    stratified_indices,
)
from raga_moodkit.mfcc import MfccConfig
from raga_moodkit.store import FeatureTable, segment_id

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# --- the rule before song-aware folds, kept as the reference ---------------------

def reference_stratified_indices(labels, val_fraction, seed):
    labels = np.asarray(labels).astype(str)
    rng = np.random.default_rng(seed)
    val = []
    for cls in sorted(set(labels.tolist())):
        members = np.flatnonzero(labels == cls)
        if len(members) < 2:
            raise ValidationError(f"class {cls!r} has {len(members)} row(s); need at least 2")
        n_val = min(int(round(val_fraction * len(members))), len(members) - 1)
        perm = rng.permutation(members)
        val.extend(perm[:n_val].tolist())
    val_idx = np.array(sorted(val), dtype=np.int64)
    mask = np.ones(len(labels), dtype=bool)
    mask[val_idx] = False
    return np.flatnonzero(mask), val_idx


def reference_kfold_indices(labels, n_folds, seed):
    labels = np.asarray(labels).astype(str)
    rng = np.random.default_rng(seed)
    fold_members = [[] for _ in range(n_folds)]
    for cls in sorted(set(labels.tolist())):
        members = np.flatnonzero(labels == cls)
        if len(members) < n_folds:
            raise ValidationError(f"class {cls!r} has {len(members)} row(s); need at least {n_folds}")
        for slot, row in enumerate(rng.permutation(members)):
            fold_members[slot % n_folds].append(int(row))
    folds = []
    everything = set(range(len(labels)))
    for val in fold_members:
        val_idx = np.array(sorted(val), dtype=np.int64)
        train_idx = np.array(sorted(everything - set(val)), dtype=np.int64)
        folds.append((train_idx, val_idx))
    return folds


def reference_split_table(table, level, val_fraction, seed):
    if level == "segment":
        return reference_stratified_indices(table.labels, val_fraction, seed)
    song_ids = table.song_ids
    unique_songs = []
    song_label = {}
    for sid, label in zip(song_ids, table.labels):
        if sid not in song_label:
            unique_songs.append(sid)
            song_label[sid] = str(label)
    _, val_songs = reference_stratified_indices([song_label[s] for s in unique_songs], val_fraction, seed)
    val_set = {unique_songs[i] for i in val_songs}
    row_is_val = np.array([sid in val_set for sid in song_ids])
    return np.flatnonzero(~row_is_val), np.flatnonzero(row_is_val)


def reference_cv_folds(table, train_idx, n_folds, seed):
    """The folds ``run_on_features`` searched before: rows of the train side
    dealt round-robin, whatever their song."""
    return [
        (train_idx[inner], train_idx[held_out])
        for inner, held_out in reference_kfold_indices(table.labels[train_idx], n_folds, seed)
    ]


# --- helpers -----------------------------------------------------------------------

class _Folds(Exception):
    def __init__(self, folds):
        super().__init__("folds captured")
        self.folds = folds


def cv_folds(table, level, val_fraction, seed, n_folds):
    """The ``(train_idx, val_idx)`` folds ``run_on_features`` hands to its
    grid search under ``cv=n_folds``, caught before anything is fitted."""
    def capture(family, grid, X, y, folds, base_params=None):
        raise _Folds(folds)

    config = ExperimentConfig(family="knn", grid={"k": [1]}, scaler="none", split_level=level,
                              val_fraction=val_fraction, seed=seed, cv=n_folds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "grid_search", capture)
        with pytest.raises(_Folds) as caught:
            run_on_features(table, config)
    return caught.value.folds


def make_table(songs_per_class: dict, cuts_of_song: list, order) -> FeatureTable:
    """One row per cut of each song, in the row order ``order(n_rows)``, so a
    song's rows need not be adjacent. Song names count down, so their sorted
    order is not the order of appearance."""
    rows = []
    song = 0
    for cls, n_songs in songs_per_class.items():
        for _ in range(n_songs):
            rows += [(f"song{len(cuts_of_song) - song:03d}", cut, cls) for cut in range(cuts_of_song[song])]
            song += 1
    rows = [rows[i] for i in order(len(rows))]
    return FeatureTable(
        segment_ids=[segment_id(name, cut) for name, cut, _ in rows],
        labels=np.asarray([cls for _, _, cls in rows], dtype=str),
        X=np.zeros((len(rows), 2)),
        mfcc=MfccConfig(n_filters=8, n_coeffs=2),
        plan=DEFAULT_BI_SAMPLE_PLAN,
    )


@st.composite
def tables(draw):
    names = draw(st.lists(st.text("abXY", min_size=1, max_size=3), min_size=2, max_size=4, unique=True))
    songs_per_class = {name: draw(st.integers(1, 12)) for name in names}
    n_songs = sum(songs_per_class.values())
    cuts_of_song = draw(st.lists(st.integers(1, 3), min_size=n_songs, max_size=n_songs))
    seed = draw(st.integers(0, 2**32 - 1))
    table = make_table(songs_per_class, cuts_of_song, np.random.default_rng(seed).permutation)
    return table, draw(st.floats(0.05, 0.8)), draw(st.integers(0, 1000)), draw(st.integers(2, 4))


def groups_of(table, level) -> np.ndarray:
    return np.asarray(table.song_ids if level == "file" else np.arange(len(table)))


def assert_whole_stratified_partition(table, level, rows, train_idx, val_idx):
    """``train_idx`` and ``val_idx`` split ``rows`` into two sorted, disjoint
    sides; no group (song or row) has rows on both, and both hold every class."""
    groups = groups_of(table, level)
    np.testing.assert_array_equal(np.sort(np.concatenate([train_idx, val_idx])), rows)
    assert list(train_idx) == sorted(train_idx) and list(val_idx) == sorted(val_idx)
    assert not set(groups[train_idx]) & set(groups[val_idx])
    assert set(table.labels[train_idx]) == set(table.labels[val_idx]) == set(table.labels[rows])


def assert_same_indexes(got, expected):
    for mine, theirs in zip(got, expected, strict=True):
        assert mine.dtype == theirs.dtype == np.int64
        np.testing.assert_array_equal(mine, theirs)


# --- properties --------------------------------------------------------------------

@PROPERTY
@given(st.lists(st.sampled_from(["x", "y", "Zz", "a"]), max_size=40), st.floats(0.05, 0.95),
       st.integers(0, 1000), st.integers(2, 4))
def test_label_partitions_equal_the_reference(labels, val_fraction, seed, n_folds):
    for mine, reference, argument in ((stratified_indices, reference_stratified_indices, val_fraction),
                                      (kfold_indices, reference_kfold_indices, n_folds)):
        try:
            expected = reference(labels, argument, seed)
        except ValidationError as refusal:
            with pytest.raises(ValidationError, match=re.escape(str(refusal).split("row(s)")[0])):
                mine(labels, argument, seed)
            continue
        got = mine(labels, argument, seed)
        pairs = zip(got, expected, strict=True) if mine is kfold_indices else [(got, expected)]
        for split, reference_split in pairs:
            assert_same_indexes(split, reference_split)


@PROPERTY
@given(tables())
def test_holdout_keeps_songs_whole_and_equals_the_reference(case):
    table, val_fraction, seed, _ = case
    for level in ("file", "segment"):
        groups = groups_of(table, level)
        _, first = np.unique(groups, return_index=True)
        group_labels = table.labels[first]
        if min(np.unique(group_labels, return_counts=True)[1]) < 2:
            with pytest.raises(ValidationError, match="need at least 2"):
                split_table(table, level, val_fraction, seed)
            continue
        train_idx, val_idx = split_table(table, level, val_fraction, seed)
        assert_same_indexes((train_idx, val_idx), reference_split_table(table, level, val_fraction, seed))
        np.testing.assert_array_equal(np.sort(np.concatenate([train_idx, val_idx])), np.arange(len(table)))
        assert not set(groups[train_idx]) & set(groups[val_idx])
        for cls in set(group_labels):
            n = int(np.sum(group_labels == cls))
            assert len(set(groups[val_idx][table.labels[val_idx] == cls])) == min(round(val_fraction * n), n - 1)
            assert cls in table.labels[train_idx]


@PROPERTY
@given(tables())
def test_cv_folds_keep_songs_whole_inside_the_train_side(case):
    table, val_fraction, seed, n_folds = case
    for level in ("file", "segment"):
        try:
            train_idx, val_idx = split_table(table, level, val_fraction, seed)
        except ValidationError as refusal:
            if "member(s) to split" not in str(refusal):
                raise
            continue
        if len(val_idx) == 0:
            with pytest.raises(ValidationError, match="validation side"):
                cv_folds(table, level, val_fraction, seed, n_folds)
            continue
        groups = groups_of(table, level)
        train_groups = {cls: len(set(groups[train_idx][table.labels[train_idx] == cls]))
                        for cls in set(table.labels.tolist())}
        too_small = sorted(cls for cls, n in train_groups.items() if n < n_folds)
        if too_small:
            # at the file level a class counts its training songs, not their rows
            first = too_small[0]
            with pytest.raises(ValidationError, match=re.escape(f"class {first!r} has {train_groups[first]} ")):
                cv_folds(table, level, val_fraction, seed, n_folds)
            continue
        folds = cv_folds(table, level, val_fraction, seed, n_folds)
        assert len(folds) == n_folds
        np.testing.assert_array_equal(np.sort(np.concatenate([held for _, held in folds])), train_idx)
        for inner, held_out in folds:
            assert_whole_stratified_partition(table, level, train_idx, inner, held_out)
        if level == "segment":
            for fold, reference_fold in zip(folds, reference_cv_folds(table, train_idx, n_folds, seed),
                                            strict=True):
                assert_same_indexes(fold, reference_fold)


# --- named cases ---------------------------------------------------------------------

def test_file_level_cv_folds_split_no_song():
    """The README corpus layout: 6 classes of 20 songs, two overlapping cuts
    each. The reference dealt rows into folds, so most of a fold's held-out
    songs had their other cut among that fold's training rows."""
    table = make_table({f"rasa{c}": 20 for c in range(6)}, [2] * 120, np.arange)
    train_idx, _ = split_table(table, "file", 0.2, 0)
    songs = np.asarray(table.song_ids)
    leaked = [set(songs[inner]) & set(songs[held]) for inner, held in reference_cv_folds(table, train_idx, 3, 0)]
    assert all(leaked)
    for inner, held_out in cv_folds(table, "file", 0.2, 0, 3):
        assert not set(songs[inner]) & set(songs[held_out])
