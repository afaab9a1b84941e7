import json

import numpy as np
import pytest

from raga_moodkit.audio import DEFAULT_BI_SAMPLE_PLAN
from raga_moodkit.bundle import _BLOCK_ROWS, ModelBundle
from raga_moodkit.catalog import RASAS, FeatureScaler, Rasa
from raga_moodkit.errors import ValidationError
from raga_moodkit.mfcc import MfccConfig
from raga_moodkit.models import GaussianNbClassifier, RbfSvmClassifier
from raga_moodkit.recommender import (
    ScoredLibrary,
    recommend_transition,
    score_library,
    slot_weights,
)
from raga_moodkit.store import FeatureTable, segment_id
from test_bundle import BLOCK_TOLERANCE


def random_library(rng, n_songs):
    scores = rng.dirichlet(np.ones(6), size=n_songs)
    ids = [f"song_{i:03d}" for i in range(n_songs)]
    return ScoredLibrary(song_ids=ids, scores=scores)


def greedy_oracle(library, current, aspired, length):
    """Slot-by-slot exhaustive simulation of the documented greedy rule."""
    weights = [1.0] if length == 1 else [i / (length - 1) for i in range(length)]
    cur = library.column(current)
    asp = library.column(aspired)
    remaining = list(range(len(library)))
    picks = []
    for w in weights:
        if not remaining:
            break
        best, best_key = None, None
        for i in remaining:
            blended = (1 - w) * cur[i] + w * asp[i]
            key = (-blended, library.song_ids[i])
            if best_key is None or key < best_key:
                best, best_key = i, key
        picks.append(library.song_ids[best])
        remaining.remove(best)
    return picks


class TestSlotWeights:
    def test_single_slot_is_aspired(self):
        np.testing.assert_array_equal(slot_weights(1), [1.0])

    def test_endpoints(self):
        w = slot_weights(5)
        assert w[0] == 0.0 and w[-1] == 1.0
        np.testing.assert_allclose(np.diff(w), 0.25)

    def test_bad_length(self):
        with pytest.raises(ValidationError):
            slot_weights(0)

    @pytest.mark.parametrize("length", [5, 10**13, 2**63, 10**400])
    def test_only_the_slots_asked_for(self, length):
        weights = slot_weights(length, 3)
        assert weights.dtype == np.float64
        assert weights.tolist() == [0.0, 1 / (length - 1), 2 / (length - 1)]

    def test_a_length_past_the_library_fills_every_song(self):
        library = random_library(np.random.default_rng(3), 7)
        playlist = recommend_transition(library, "Karuna", "Veera", 10**13)
        assert sorted(playlist.song_ids()) == list(library.song_ids)
        assert [slot.weight for slot in playlist.slots] == [i / (10**13 - 1) for i in range(7)]


class TestScoredLibrary:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ScoredLibrary(song_ids=["a"], scores=np.array([[0.5, 0.1, 0.1, 0.1, 0.1, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_are_refused(self, bad):
        # a NaN row sum compares false against the tolerance, so it needs its own check
        with pytest.raises(ValidationError, match="finite"):
            ScoredLibrary(["a", "b", "c"], [[bad] * 6, [1 / 6] * 6, [1 / 6] * 6])

    def test_column_lookup(self):
        rng = np.random.default_rng(0)
        library = random_library(rng, 4)
        np.testing.assert_array_equal(library.column(Rasa.VEERA), library.scores[:, 5])
        np.testing.assert_array_equal(library.column("Adhbhutha"), library.scores[:, 0])

    def test_empty_is_valid_structure(self):
        library = ScoredLibrary(song_ids=(), scores=np.empty((0, 6)))
        assert len(library) == 0


def score_library_reference(bundle, table):
    """Per-song loop over the model's one whole-table call: each song's
    segment scores averaged with np.mean, songs in the order their first row
    appears."""
    X = bundle.scaler.transform(table.X) if bundle.scaler is not None else table.X
    grouped = {}
    for sid, row in zip(table.song_ids, bundle.model.predict_scores(X)):
        grouped.setdefault(sid, []).append(row)
    return tuple(grouped), np.vstack([np.mean(rows, axis=0) for rows in grouped.values()])


def interleaved_library(rng, model, n_songs, scaler=None):
    """1-3 rows per song, songs interleaved so first-seen order is not sorted
    order, under a bundle of ``model``."""
    rows = [(f"s{song:04d}", cut) for song in range(n_songs) for cut in range(rng.integers(1, 4))]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    table = FeatureTable(
        segment_ids=[segment_id(song, cut) for song, cut in rows],
        labels=rng.choice(model.classes_, len(rows)),
        X=rng.standard_normal((len(rows), model.n_features_)),
        mfcc=MfccConfig(),
        plan=DEFAULT_BI_SAMPLE_PLAN,
    )
    bundle = ModelBundle(
        model=model, scaler=scaler, feature_fingerprint=table.mfcc.get_params(),
        config={"plan": [list(cut) for cut in table.plan.cuts]},
    )
    return bundle, table


class TestScoreLibrary:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_song_mean_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        classes = np.array(["a", "b", "c"])
        model = GaussianNbClassifier().fit(rng.standard_normal((30, 4)), np.repeat(classes, 10))
        bundle, table = interleaved_library(rng, model, 200)
        library = score_library(bundle, table)
        song_ids, scores = score_library_reference(bundle, table)
        assert library.song_ids == song_ids
        assert np.array_equal(library.scores, scores)

    def test_multi_block_table_matches_the_whole_table_mean(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 4))
        scaler = FeatureScaler().fit(X)
        model = RbfSvmClassifier(gamma=0.5).fit(scaler.transform(X), np.repeat(["a", "b", "c"], 10))
        bundle, table = interleaved_library(rng, model, 1_600, scaler)
        assert len(table) > 3 * _BLOCK_ROWS
        library = score_library(bundle, table)
        song_ids, scores = score_library_reference(bundle, table)
        assert library.song_ids == song_ids
        np.testing.assert_allclose(library.scores, scores, rtol=0.0, atol=BLOCK_TOLERANCE)


class TestRecommend:
    def test_two_song_endpoint_dominance(self):
        scores = np.zeros((2, 6))
        karuna, shantha = RASAS.index("Karuna"), RASAS.index("Shantha")
        scores[0, karuna], scores[0, shantha] = 0.9, 0.1
        scores[1, karuna], scores[1, shantha] = 0.1, 0.9
        library = ScoredLibrary(song_ids=["song1", "song2"], scores=scores)
        playlist = recommend_transition(library, "Karuna", "Shantha", 2)
        assert playlist.song_ids() == ["song1", "song2"]

    def test_same_mood_is_top_l_by_that_score(self):
        rng = np.random.default_rng(1)
        library = random_library(rng, 10)
        playlist = recommend_transition(library, "Veera", "Veera", 4)
        order = np.argsort(-library.column("Veera"), kind="stable")[:4]
        assert playlist.song_ids() == [library.song_ids[i] for i in order]

    def test_first_and_last_slot_extremal(self):
        rng = np.random.default_rng(2)
        library = random_library(rng, 12)
        playlist = recommend_transition(library, "Karuna", "Shringara", 5)
        ids = playlist.song_ids()
        # first slot: global max of the current-mood score
        first = np.argmax(library.column("Karuna"))
        assert ids[0] == library.song_ids[first]
        # last slot: max aspired score among the not-yet-picked songs
        picked_before_last = set(ids[:-1])
        candidates = [i for i in range(12) if library.song_ids[i] not in picked_before_last]
        best_last = max(candidates, key=lambda i: (library.column("Shringara")[i], ))
        assert ids[-1] == library.song_ids[best_last]

    def test_no_duplicates_and_length(self):
        rng = np.random.default_rng(3)
        library = random_library(rng, 6)
        playlist = recommend_transition(library, "Haasya", "Veera", 10)
        ids = playlist.song_ids()
        assert len(ids) == 6  # min(L, library size)
        assert len(set(ids)) == 6

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            library = random_library(rng, int(rng.integers(1, 9)))
            current, aspired = rng.choice(RASAS, 2)
            length = int(rng.integers(1, 9))
            playlist = recommend_transition(library, current, aspired, length)
            assert playlist.song_ids() == greedy_oracle(library, current, aspired, length)

    def test_reversed_moods_swap_anchors(self):
        rng = np.random.default_rng(5)
        library = random_library(rng, 9)
        forward = recommend_transition(library, "Karuna", "Veera", 4)
        backward = recommend_transition(library, "Veera", "Karuna", 4)
        assert forward.song_ids()[0] == library.song_ids[int(np.argmax(library.column("Karuna")))]
        assert backward.song_ids()[0] == library.song_ids[int(np.argmax(library.column("Veera")))]

    def test_tie_breaks_lexicographic(self):
        scores = np.tile(np.full(6, 1 / 6), (3, 1))
        library = ScoredLibrary(song_ids=["zeta", "alpha", "mid"], scores=scores)
        playlist = recommend_transition(library, "Karuna", "Veera", 3)
        assert playlist.song_ids() == ["alpha", "mid", "zeta"]

    def test_empty_library(self):
        library = ScoredLibrary(song_ids=(), scores=np.empty((0, 6)))
        with pytest.raises(ValidationError, match="cannot recommend from an empty library"):
            recommend_transition(library, "Karuna", "Veera", 3)

    def test_unknown_rasa(self):
        rng = np.random.default_rng(6)
        library = random_library(rng, 3)
        with pytest.raises(ValidationError, match="unknown rasa 'Raudra'"):
            recommend_transition(library, "Raudra", "Veera", 2)

    def test_json_shape(self):
        rng = np.random.default_rng(7)
        library = random_library(rng, 3)
        playlist = recommend_transition(library, "Karuna", "Veera", 2)
        payload = json.loads(playlist.to_json())
        assert set(payload) == {"slots"}
        assert set(payload["slots"][0]) == {"rank", "song_id", "weight", "blended_score"}
        assert payload["slots"][0]["weight"] == 0.0
        assert payload["slots"][1]["weight"] == 1.0
        assert isinstance(playlist.to_text(), str)
