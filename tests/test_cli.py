"""End-to-end command-line tests on the small session corpus."""
import json

import numpy as np
import pytest

from raga_moodkit.audio import AudioBuffer, write_wav
from raga_moodkit.cli import main, parse_grid, parse_params
from raga_moodkit.errors import ValidationError
from raga_moodkit.store import read_store, sidecar_path


@pytest.fixture(scope="module")
def extracted(small_corpus, tmp_path_factory):
    """One shared feature store extracted through the CLI."""
    out = tmp_path_factory.mktemp("cli_store")
    store = out / "features.csv"
    code = main(
        [
            "extract",
            "--manifest", str(small_corpus.manifest_path),
            "--out", str(store),
        ]
    )
    assert code == 0
    return store


@pytest.fixture(scope="module")
def trained(extracted, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_model")
    model = out / "model.json"
    code = main(
        [
            "train",
            "--features", str(extracted),
            "--out", str(model),
            "--family", "svm",
            "--params", "C=10", "gamma=0.1",
            "--seed", "5",
        ]
    )
    assert code == 0
    return model


class TestParsing:
    def test_parse_params(self):
        assert parse_params(["k=3", "metric=manhattan", "rate=0.5"]) == {
            "k": 3,
            "metric": "manhattan",
            "rate": 0.5,
        }
        assert parse_params(["hidden=8,8,4,4"]) == {"hidden": (8, 8, 4, 4)}

    def test_parse_params_bad(self):
        with pytest.raises(ValidationError):
            parse_params(["k3"])

    def test_parse_grid(self):
        assert parse_grid(["C=1,10", "gamma=0.01,0.1"]) == {
            "C": [1, 10],
            "gamma": [0.01, 0.1],
        }

    def test_bad_flag_is_validation_error(self, capsys):
        assert main(["train", "--bogus"]) == 1


class TestExtract:
    def test_bi_sample_doubles_rows(self, small_corpus, extracted):
        table = read_store(extracted)
        assert len(table) == 2 * len(small_corpus.records)
        assert sidecar_path(extracted).exists()

    def test_missing_audio_strict_fails(self, small_corpus, tmp_path):
        # real rows point at the corpus by absolute path; one ghost row doesn't
        bad_manifest = tmp_path / "manifest.csv"
        lines = ["id,path,title,raga,language,genre"]
        for rec in small_corpus.records:
            absolute = small_corpus.base_dir / rec.path
            lines.append(f"{rec.id},{absolute},{rec.title},{rec.raga},{rec.language},{rec.genre}")
        lines.append("ghost,missing.wav,Ghost,Mohana,Instrumental,Indian Classical")
        bad_manifest.write_text("\n".join(lines) + "\n")
        strict = main(
            ["extract", "--manifest", str(bad_manifest), "--out", str(tmp_path / "s.csv"), "--strict"]
        )
        assert strict == 2
        lenient = main(
            ["extract", "--manifest", str(bad_manifest), "--out", str(tmp_path / "l.csv")]
        )
        assert lenient == 0
        table = read_store(tmp_path / "l.csv")
        assert len(table) == 2 * len(small_corpus.records)  # ghost skipped

    def test_correlation_csv_written(self, small_corpus, tmp_path):
        out = tmp_path / "f.csv"
        corr = tmp_path / "corr.csv"
        code = main(
            [
                "extract",
                "--manifest", str(small_corpus.manifest_path),
                "--out", str(out),
                "--plan", "first60",
                "--correlation-out", str(corr),
            ]
        )
        assert code == 0
        assert corr.read_text().splitlines()[0] == "," + ",".join(f"c{i}" for i in range(40))

    def test_parallel_extract_matches_serial(self, small_corpus, extracted, tmp_path):
        out = tmp_path / "parallel.csv"
        code = main(
            [
                "extract",
                "--manifest", str(small_corpus.manifest_path),
                "--out", str(out),
                "--jobs", "2",
            ]
        )
        assert code == 0
        assert out.read_bytes() == extracted.read_bytes()


class TestTrainEvaluate:
    def test_train_writes_bundle(self, trained):
        payload = json.loads(trained.read_text())
        assert payload["format_version"] == 1
        assert payload["model"]["family"] == "svm"
        assert payload["metrics"]["validation_accuracy"] >= 0.5
        assert payload["config"]["command"] == "train"
        assert payload["config"]["seed"] == 5

    def test_invalid_k_is_validation_error(self, extracted, tmp_path):
        code = main(
            [
                "train",
                "--features", str(extracted),
                "--out", str(tmp_path / "m.json"),
                "--family", "knn",
                "--params", "k=0",
            ]
        )
        assert code == 1

    def test_split_out(self, extracted, tmp_path):
        model = tmp_path / "m.json"
        split = tmp_path / "split.csv"
        code = main(
            [
                "train",
                "--features", str(extracted),
                "--out", str(model),
                "--family", "knn",
                "--params", "k=3",
                "--split-out", str(split),
            ]
        )
        assert code == 0
        lines = split.read_text().splitlines()
        assert lines[0] == "id,role"
        assert len(lines) == 1 + len(read_store(extracted))
        assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"train", "val"}

    def test_evaluate_consistent_with_stored_metrics(self, extracted, trained, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--features", str(extracted),
                "--model", str(trained),
                "--out", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        stored = json.loads(trained.read_text())["metrics"]
        assert report["train_accuracy"] == pytest.approx(stored["train_accuracy"])
        assert report["validation_accuracy"] == pytest.approx(stored["validation_accuracy"])

    def test_tune_reports_every_grid_point(self, extracted, tmp_path, capsys):
        model = tmp_path / "tuned.json"
        report_path = tmp_path / "grid.json"
        code = main(
            [
                "tune",
                "--features", str(extracted),
                "--out", str(model),
                "--family", "knn",
                "--grid", "k=1,3", "metric=manhattan,euclidean",
                "--seed", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("grid {") == 4

    def test_tune_with_cross_validated_selection(self, extracted, tmp_path):
        model = tmp_path / "cv.json"
        code = main(
            [
                "tune",
                "--features", str(extracted),
                "--out", str(model),
                "--family", "knn",
                "--grid", "k=3,5",
                "--cv", "3",
                "--seed", "0",
            ]
        )
        assert code == 0
        payload = json.loads(model.read_text())
        assert payload["config"]["cv"] == 3
        assert payload["config"]["params"]["k"] in (3, 5)

    def test_file_level_split_has_no_song_leakage(self, extracted, trained):
        payload = json.loads(trained.read_text())
        roles = payload["split"]["roles"]
        songs = {}
        for seg, role in roles.items():
            song = seg.rsplit(":", 1)[0]
            songs.setdefault(song, set()).add(role)
        assert all(len(r) == 1 for r in songs.values())


class TestClassifyRecommend:
    def test_classify_training_file(self, small_corpus, trained, capsys):
        wav = small_corpus.base_dir / small_corpus.records[0].path
        code = main(["classify", "--model", str(trained), "--wav", str(wav)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        scores = payload["scores"]
        assert len(scores) == 6
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
        assert payload["predicted"] in scores

    def test_classify_deterministic(self, small_corpus, trained, capsys):
        wav = small_corpus.base_dir / small_corpus.records[3].path
        main(["classify", "--model", str(trained), "--wav", str(wav)])
        first = capsys.readouterr().out
        main(["classify", "--model", str(trained), "--wav", str(wav)])
        assert capsys.readouterr().out == first

    def test_classify_non_wav_is_data_error(self, trained, tmp_path, capsys):
        bogus = tmp_path / "not_audio.wav"
        bogus.write_bytes(b"definitely not audio")
        assert main(["classify", "--model", str(trained), "--wav", str(bogus)]) == 2

    def test_recommend_playlist(self, small_corpus, trained, tmp_path, capsys):
        out = tmp_path / "playlist.json"
        code = main(
            [
                "recommend",
                "--model", str(trained),
                "--manifest", str(small_corpus.manifest_path),
                "--from", "Karuna",
                "--to", "Shantha",
                "--length", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        ids = [slot["song_id"] for slot in payload["slots"]]
        assert len(ids) == 5
        assert len(set(ids)) == 5

    def test_recommend_unknown_rasa(self, trained, small_corpus):
        code = main(
            [
                "recommend",
                "--model", str(trained),
                "--manifest", str(small_corpus.manifest_path),
                "--from", "Bogus",
                "--to", "Shantha",
            ]
        )
        assert code == 1

    def test_recommend_length_one_takes_top_aspired(self, small_corpus, trained, tmp_path):
        out = tmp_path / "one.json"
        code = main(
            [
                "recommend",
                "--model", str(trained),
                "--manifest", str(small_corpus.manifest_path),
                "--from", "Karuna",
                "--to", "Veera",
                "--length", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["slots"]) == 1
        assert payload["slots"][0]["weight"] == 1.0


class TestCorruptInputs:
    """Unusable data exits with code 2 and a one-line error, never a traceback."""

    @staticmethod
    def assert_data_error(code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_non_numeric_store_row(self, extracted, tmp_path, capsys):
        store = tmp_path / "features.csv"
        lines = extracted.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split(",")
        fields[4] = "not-a-number"
        lines[1] = ",".join(fields)
        store.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sidecar_path(store).write_bytes(sidecar_path(extracted).read_bytes())
        code = main(["train", "--features", str(store), "--out", str(tmp_path / "m.json"),
                     "--family", "knn"])
        self.assert_data_error(code, capsys)

    def test_malformed_bundle_json(self, small_corpus, trained, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(trained.read_text(encoding="utf-8")[:-40], encoding="utf-8")
        wav = small_corpus.base_dir / small_corpus.records[0].path
        code = main(["classify", "--model", str(model), "--wav", str(wav)])
        self.assert_data_error(code, capsys)

    def test_nan_float32_wav(self, trained, tmp_path, capsys):
        samples = 0.5 * np.sin(np.arange(22050) / 7.0)
        samples[100] = np.nan
        wav = tmp_path / "nan.wav"
        write_wav(wav, AudioBuffer(samples=samples, sample_rate=22050), "float32")
        code = main(["classify", "--model", str(trained), "--wav", str(wav)])
        self.assert_data_error(code, capsys)


class TestSynthCommand:
    def test_synth_manifest_loads(self, tmp_path, capsys):
        code = main(
            ["synth", "--out", str(tmp_path / "c"), "--files-per-class", "1",
             "--duration", "0.5", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_files"] == 6
        from raga_moodkit.catalog import load_manifest

        assert len(load_manifest(payload["manifest"])) == 6
