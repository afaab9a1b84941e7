import numpy as np
import pytest

from raga_moodkit.catalog import (
    DEFAULT_RAGA_TABLE,
    GENRES,
    RASAS,
    FeatureScaler,
    Rasa,
    load_manifest,
    parse_rasa,
    rasa_for_raga,
    write_manifest,
)
from raga_moodkit.errors import (
    BadGenre,
    ClassTooSmall,
    DuplicateId,
    UnknownRaga,
    UnknownRasa,
    ValidationError,
)
from raga_moodkit.experiments import stratified_indices


class TestRagaTable:
    def test_35_canonical_entries(self):
        assert sum(len(DEFAULT_RAGA_TABLE.ragas_for_rasa(rasa)) for rasa in Rasa) == 35

    def test_known_lookups(self):
        assert rasa_for_raga("Mohana") is Rasa.VEERA
        assert rasa_for_raga("Kalyani") is Rasa.SHRINGARA
        assert rasa_for_raga("Desh") is Rasa.ADHBHUTHA
        assert rasa_for_raga("Shankarabharanam") is Rasa.HAASYA
        assert rasa_for_raga("Bageshri") is Rasa.KARUNA
        assert rasa_for_raga("Sama") is Rasa.SHANTHA

    def test_aliases(self):
        assert rasa_for_raga("bhimpalasi") is Rasa.ADHBHUTHA
        assert rasa_for_raga("valachi") is Rasa.SHANTHA
        assert rasa_for_raga("Durga") is Rasa.SHANTHA
        assert rasa_for_raga("Abheri/Bhimpalasi") is Rasa.ADHBHUTHA
        assert rasa_for_raga("Shuddha Saveri - Durga") is Rasa.SHANTHA

    def test_normalization(self):
        assert rasa_for_raga("  MOHANA ") is Rasa.VEERA
        assert rasa_for_raga("yadhukula kambhodhi") is Rasa.SHANTHA
        assert rasa_for_raga("sindhu-bhairavi") is Rasa.SHANTHA

    def test_unknown_fails_closed(self):
        with pytest.raises(UnknownRaga):
            rasa_for_raga("Todi")

    def test_every_rasa_has_ragas(self):
        for rasa in Rasa:
            assert len(DEFAULT_RAGA_TABLE.ragas_for_rasa(rasa)) >= 4


class TestParseRasa:
    def test_plain(self):
        assert parse_rasa("Karuna") is Rasa.KARUNA
        assert parse_rasa("veera") is Rasa.VEERA

    def test_spelling_variant(self):
        assert parse_rasa("Adhbbhutha") is Rasa.ADHBHUTHA

    def test_unknown(self):
        with pytest.raises(UnknownRasa):
            parse_rasa("Raudra")  # excluded from scope

    def test_order_is_canonical(self):
        assert RASAS == ("Adhbhutha", "Haasya", "Karuna", "Shantha", "Shringara", "Veera")
        assert RASAS == tuple(sorted(RASAS))


def manifest_file(tmp_path, rows, header="id,path,title,raga,language,genre"):
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestManifest:
    def test_rasa_derived(self, tmp_path):
        path = manifest_file(tmp_path, ["s1,s1.wav,First,Kalyani,Tamil,Movie"])
        records = load_manifest(path)
        assert records[0].rasa is Rasa.SHRINGARA
        assert records[0].genre == "Movie"

    def test_bad_genre(self, tmp_path):
        path = manifest_file(tmp_path, ["s1,s1.wav,First,Kalyani,Tamil,Podcast"])
        with pytest.raises(BadGenre):
            load_manifest(path)

    def test_duplicate_id(self, tmp_path):
        path = manifest_file(
            tmp_path,
            ["s1,a.wav,A,Kalyani,Tamil,Movie", "s1,b.wav,B,Mohana,Tamil,Movie"],
        )
        with pytest.raises(DuplicateId):
            load_manifest(path)

    def test_unknown_raga_with_context(self, tmp_path):
        path = manifest_file(tmp_path, ["s9,a.wav,A,Todi,Tamil,Movie"])
        with pytest.raises(UnknownRaga, match="s9"):
            load_manifest(path)

    def test_bad_header(self, tmp_path):
        path = manifest_file(tmp_path, ["s1,a.wav,A,Kalyani,Tamil,Movie"], header="id,file,raga")
        with pytest.raises(ValidationError):
            load_manifest(path)

    def test_roundtrip(self, tmp_path):
        path = manifest_file(
            tmp_path,
            [
                "s1,a.wav,A,Kalyani,Tamil,Movie",
                "s2,b.wav,B,Mohana,Hindi,Indian Classical",
                "s3,c.wav,C,Desh,Kannada,Folk/Album",
            ],
        )
        records = load_manifest(path)
        out = tmp_path / "again.csv"
        write_manifest(out, records)
        assert load_manifest(out) == records

    def test_genres_closed_set(self):
        assert GENRES == ("Folk/Album", "Indian Classical", "Movie")


class TestStratifiedSplit:
    def test_proportions(self):
        labels = np.repeat(RASAS[:5], 20)
        train, val = stratified_indices(labels, 0.2, seed=0)
        assert len(val) == 20
        for rasa in RASAS[:5]:
            assert np.sum(labels[val] == rasa) == 4

    def test_partition(self):
        labels = np.repeat(["a", "b"], 10)
        train, val = stratified_indices(labels, 0.3, seed=1)
        merged = np.sort(np.concatenate([train, val]))
        np.testing.assert_array_equal(merged, np.arange(20))

    def test_deterministic(self):
        labels = np.repeat(["a", "b", "c"], 7)
        first = stratified_indices(labels, 0.25, seed=42)
        second = stratified_indices(labels, 0.25, seed=42)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
        third = stratified_indices(labels, 0.25, seed=43)
        assert not np.array_equal(first[1], third[1])

    def test_counts_within_floor_ceil(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            sizes = rng.integers(2, 30, size=3)
            fraction = float(rng.uniform(0.1, 0.9))
            labels = np.concatenate([np.full(s, c) for s, c in zip(sizes, "abc")])
            _, val = stratified_indices(labels, fraction, seed=trial)
            for size, cls in zip(sizes, "abc"):
                n_val = int(np.sum(labels[val] == cls))
                assert np.floor(fraction * size) <= n_val <= np.ceil(fraction * size)

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            stratified_indices(["a", "a", "b"], 0.5, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            stratified_indices(["a", "a"], 1.0, seed=0)

    def test_record_split(self, tmp_path):
        rows = [f"s{i},f{i}.wav,T,{raga},Tamil,Movie"
                for i, raga in enumerate(["Kalyani"] * 5 + ["Mohana"] * 5)]
        records = load_manifest(manifest_file(tmp_path, rows))
        train, val = stratified_indices([r.rasa.value for r in records], 0.2, seed=0)
        assert len(train) == 8 and len(val) == 2
        assert {records[i].id for i in train} | {records[i].id for i in val} == {r.id for r in records}


class TestScaler:
    def test_zscore_example(self):
        scaler = FeatureScaler("zscore").fit([[1.0], [3.0]])
        assert scaler.offset_[0] == pytest.approx(2.0)
        assert scaler.scale_[0] == pytest.approx(1.0)  # population std
        assert scaler.transform([[2.0]])[0, 0] == pytest.approx(0.0)

    def test_minmax_example(self):
        scaler = FeatureScaler("minmax").fit([[0.0], [10.0]])
        assert scaler.transform([[5.0]])[0, 0] == pytest.approx(0.5)

    def test_constant_column_maps_to_zero(self):
        for kind in ("zscore", "minmax"):
            scaler = FeatureScaler(kind).fit([[7.0, 1.0], [7.0, 2.0]])
            out = scaler.transform([[7.0, 3.0], [9.0, 1.0]])
            assert out[0, 0] == 0.0 and out[1, 0] == 0.0

    def test_train_statistics_after_zscore(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 8))
        out = FeatureScaler("zscore").fit(X).transform(X)
        assert np.max(np.abs(out.mean(axis=0))) < 1e-9
        assert np.max(np.abs(out.std(axis=0) - 1.0)) < 1e-9

    def test_row_order_invariant(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 4))
        base = FeatureScaler("zscore").fit(X).transform(X)
        perm = rng.permutation(50)
        shuffled = FeatureScaler("zscore").fit(X[perm]).transform(X)
        np.testing.assert_allclose(base, shuffled, atol=1e-12)

    def test_statistics_from_train_only(self):
        scaler = FeatureScaler("minmax").fit([[0.0], [1.0]])
        out = scaler.transform([[2.0]])
        assert out[0, 0] == pytest.approx(2.0)  # extrapolates, no refit

    def test_serialization_roundtrip(self):
        scaler = FeatureScaler("zscore").fit([[1.0, 2.0], [3.0, 4.0], [5.0, 9.0]])
        clone = FeatureScaler.from_dict(scaler.to_dict(), {"F": 2})
        X = [[2.0, 3.0]]
        np.testing.assert_allclose(scaler.transform(X), clone.transform(X))

    def test_needs_two_rows(self):
        with pytest.raises(ValidationError):
            FeatureScaler("zscore").fit([[1.0]])

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            FeatureScaler("robust").fit([[1.0], [2.0]])

    def test_get_params(self):
        assert FeatureScaler("minmax").get_params() == {"kind": "minmax"}
