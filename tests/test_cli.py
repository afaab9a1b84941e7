"""End-to-end command-line tests on the small session corpus."""
import json

import numpy as np
import pytest

from raga_moodkit.audio import AudioBuffer, write_wav
from raga_moodkit.bundle import ModelBundle
from raga_moodkit.catalog import FeatureScaler
from raga_moodkit.cli import main, parse_grid, parse_params
from raga_moodkit.errors import CorruptArtifact, ValidationError
from raga_moodkit.experiments import ExperimentConfig
from raga_moodkit.models import FAMILIES
from raga_moodkit.store import read_store, sidecar_path


def manifest_with_ghost(small_corpus, tmp_path):
    """The corpus rows by absolute path, plus one row whose WAV does not exist."""
    manifest = tmp_path / "manifest.csv"
    lines = ["id,path,title,raga,language,genre"]
    for rec in small_corpus.records:
        absolute = small_corpus.base_dir / rec.path
        lines.append(f"{rec.id},{absolute},{rec.title},{rec.raga},{rec.language},{rec.genre}")
    lines.append("ghost,missing.wav,Ghost,Mohana,Instrumental,Indian Classical")
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


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


#: Quick-to-train parameters for one bundle of each family.
QUICK_PARAMS = {
    "knn": ["k=3"],
    "gnb": [],
    "logreg": ["max_iter=20"],
    "svm": [],
    "forest": ["n_estimators=3"],
    "mlp": ["hidden=4,4,4,4", "epochs=1"],
}


@pytest.fixture(scope="module")
def family_bundles(extracted, tmp_path_factory):
    """One bundle per family, trained through the CLI on the shared store."""
    out = tmp_path_factory.mktemp("family_bundles")
    bundles = {}
    for family, params in QUICK_PARAMS.items():
        bundles[family] = out / f"{family}.json"
        code = main(["train", "--features", str(extracted), "--out", str(bundles[family]),
                     "--family", family, "--params", *params])
        assert code == 0
    return bundles


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

    def test_missing_audio_strict_fails(self, small_corpus, tmp_path, capsys):
        bad_manifest = manifest_with_ghost(small_corpus, tmp_path)
        strict = main(
            ["extract", "--manifest", str(bad_manifest), "--out", str(tmp_path / "s.csv"), "--strict"]
        )
        assert strict == 2
        assert "ghost (" in capsys.readouterr().err
        lenient = main(
            ["extract", "--manifest", str(bad_manifest), "--out", str(tmp_path / "l.csv")]
        )
        assert lenient == 0
        assert capsys.readouterr().err.startswith("extract: ghost: ")
        table = read_store(tmp_path / "l.csv")
        assert len(table) == 2 * len(small_corpus.records)  # ghost skipped
        assert json.loads(sidecar_path(tmp_path / "l.csv").read_text())["failures"] == ["ghost"]

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
    def assert_data_error(code, capsys, expected_code=2):
        err = capsys.readouterr().err
        assert code == expected_code
        assert err.startswith("error: ") and "Traceback" not in err
        return err

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

    @pytest.mark.parametrize(
        "damage",
        ["list", "no_model", "no_class_order", "scaler_without_kind", "bundle_version_2",
         "model_version_2", "family_hmm", "no_support_vectors", "svm_two_classes",
         "knn_two_classes", "short_scaler"],
    )
    def test_wrong_shape_bundle(
        self, small_corpus, extracted, trained, family_bundles, tmp_path, capsys, damage
    ):
        source = family_bundles["knn"] if damage.startswith("knn") else trained
        payload = json.loads(source.read_text(encoding="utf-8"))
        if damage == "list":
            payload = [1, 2]
        elif damage == "no_model":
            payload = {"format_version": 1}
        elif damage == "no_class_order":
            del payload["model"]["class_order"]
        elif damage == "scaler_without_kind":
            del payload["scaler"]["kind"]
        elif damage == "bundle_version_2":
            payload["format_version"] = 2
        elif damage == "model_version_2":
            payload["model"]["format_version"] = 2
        elif damage == "family_hmm":
            payload["model"]["family"] = "hmm"
        elif damage == "no_support_vectors":
            for pair in payload["model"]["params"]["pairs"]:
                pair["support_vectors"] = pair["dual_coef"] = {"shape": [0], "data": ""}
        elif damage.endswith("two_classes"):
            payload["model"]["class_order"] = payload["model"]["class_order"][:2]
        else:
            for key in ("offset", "scale"):
                payload["scaler"][key] = payload["scaler"][key][:-1]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CorruptArtifact):
            ModelBundle.load(model)
        wav = small_corpus.base_dir / small_corpus.records[0].path
        runs = [
            ["classify", "--model", str(model), "--wav", str(wav)],
            ["evaluate", "--model", str(model), "--features", str(extracted)],
            ["recommend", "--model", str(model), "--manifest", str(small_corpus.manifest_path),
             "--from", "Karuna", "--to", "Shantha"],
        ]
        for argv in runs:
            self.assert_data_error(main(argv), capsys)

    def test_bundle_without_plan(self, small_corpus, trained, tmp_path, capsys):
        # every bundle the program saves records its table's segment plan;
        # serving one without it would have to guess how to cut the audio
        payload = json.loads(trained.read_text(encoding="utf-8"))
        del payload["config"]["plan"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        wav = small_corpus.base_dir / small_corpus.records[0].path
        for argv in (
            ["classify", "--model", str(model), "--wav", str(wav)],
            ["recommend", "--model", str(model), "--manifest", str(small_corpus.manifest_path),
             "--from", "Karuna", "--to", "Shantha"],
        ):
            assert "segment plan" in self.assert_data_error(main(argv), capsys)

    @pytest.mark.parametrize(
        "damage",
        ["no_mfcc", "unknown_mfcc_key", "store_version_2", "fft_size_1000", "negative_cut_start",
         "renamed_column"],
    )
    def test_wrong_shape_sidecar(self, extracted, tmp_path, capsys, damage):
        store = tmp_path / "features.csv"
        store.write_bytes(extracted.read_bytes())
        meta = json.loads(sidecar_path(extracted).read_text(encoding="utf-8"))
        if damage == "no_mfcc":
            del meta["mfcc"]
        elif damage == "unknown_mfcc_key":
            meta["mfcc"]["bogus"] = 1
        elif damage == "store_version_2":
            meta["format_version"] = 2
        elif damage == "fft_size_1000":
            meta["mfcc"]["fft_size"] = 1000
        elif damage == "negative_cut_start":
            meta["segment_plan"][0][0] = -1
        else:
            store.write_text(
                extracted.read_text(encoding="utf-8").replace(",c1,", ",c01,", 1), encoding="utf-8"
            )
        sidecar_path(store).write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(CorruptArtifact):
            read_store(store)
        code = main(["train", "--features", str(store), "--out", str(tmp_path / "m.json"),
                     "--family", "knn"])
        self.assert_data_error(code, capsys)

    def test_recommend_names_the_missing_file(self, small_corpus, trained, tmp_path, capsys):
        manifest = manifest_with_ghost(small_corpus, tmp_path)
        code = main(["recommend", "--model", str(trained), "--manifest", str(manifest),
                     "--from", "Karuna", "--to", "Shantha"])
        err = capsys.readouterr().err
        assert code == 2
        assert "ghost" in err and "missing.wav" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--family", "knn", "--params", "foo=1"],
            ["tune", "--family", "knn", "--grid", "bogus=1,2"],
            ["train", "--family", "knn", "--params", "k=abc"],
            ["train", "--family", "svm", "--params", "C=abc"],
            ["train", "--family", "mlp", "--params", "hidden=a,b,c,d"],
            ["train", "--family", "gnb", "--params", "var_floor=0"],
            ["train", "--family", "svm", "--params", "gamma=nan"],
            ["train", "--family", "svm", "--params", "C=nan"],
            ["train", "--family", "svm", "--params", "max_passes=0"],
        ],
        ids=["unknown_param", "unknown_grid_name", "knn_k_text", "svm_C_text", "mlp_hidden_text",
             "gnb_var_floor_zero", "svm_gamma_nan", "svm_C_nan", "svm_max_passes_zero"],
    )
    def test_bad_model_params_are_validation_errors(self, extracted, tmp_path, capsys, argv):
        model = tmp_path / "m.json"
        code = main(argv + ["--features", str(extracted), "--out", str(model)])
        self.assert_data_error(code, capsys, expected_code=1)
        assert not model.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["extract", "--plan", "nan:5"],
            ["extract", "--plan", "0:inf"],
            ["extract", "--log-floor", "nan"],
            ["train", "--family", "knn", "--seed", "-1"],
            ["synth", "--seed", "-1"],
            ["synth", "--duration", "nan"],
        ],
        ids=["plan_start_nan", "plan_duration_inf", "log_floor_nan", "train_seed_negative",
             "synth_seed_negative", "synth_duration_nan"],
    )
    def test_bad_settings_are_validation_errors(self, small_corpus, extracted, tmp_path, capsys, argv):
        inputs = {
            "extract": ["--manifest", str(small_corpus.manifest_path)],
            "train": ["--features", str(extracted)],
            "synth": ["--files-per-class", "1"],
        }
        out = tmp_path / "out"
        code = main(argv + inputs[argv[0]] + ["--out", str(out)])
        self.assert_data_error(code, capsys, expected_code=1)
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, params, damage",
        [
            ("svm", ["C=10", "gamma=0.1"], lambda stored: stored.update(C="abc")),
            ("knn", ["k=3"], lambda stored: stored.update(k=2.5)),
            ("mlp", ["hidden=4,4,4,4", "epochs=1"], lambda stored: stored.pop("hidden")),
        ],
        ids=["svm_C_text", "knn_k_fraction", "mlp_hidden_missing"],
    )
    def test_bad_stored_hyperparameter(
        self, small_corpus, extracted, tmp_path, capsys, family, params, damage
    ):
        model = tmp_path / "model.json"
        code = main(["train", "--features", str(extracted), "--out", str(model),
                     "--family", family, "--params", *params])
        assert code == 0
        payload = json.loads(model.read_text(encoding="utf-8"))
        damage(payload["model"]["params"])
        model.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CorruptArtifact):
            ModelBundle.load(model)
        capsys.readouterr()
        wav = small_corpus.base_dir / small_corpus.records[0].path
        code = main(["classify", "--model", str(model), "--wav", str(wav)])
        self.assert_data_error(code, capsys)

    def test_non_utf8_store_row(self, extracted, tmp_path, capsys):
        store = tmp_path / "features.csv"
        lines = extracted.read_bytes().split(b"\n")
        lines[1] += b"\xff\xfe"
        store.write_bytes(b"\n".join(lines))
        sidecar_path(store).write_bytes(sidecar_path(extracted).read_bytes())
        code = main(["train", "--features", str(store), "--out", str(tmp_path / "m.json"),
                     "--family", "knn"])
        self.assert_data_error(code, capsys)

    def test_non_utf8_manifest(self, small_corpus, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        lines = small_corpus.manifest_path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"Instrumental", b"Instrumental\xff\xfe")
        manifest.write_bytes(b"\n".join(lines))
        code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")])
        err = self.assert_data_error(code, capsys)
        assert "manifest.csv:3" in err

    def test_nan_float32_wav(self, trained, tmp_path, capsys):
        samples = 0.5 * np.sin(np.arange(22050) / 7.0)
        samples[100] = np.nan
        wav = tmp_path / "nan.wav"
        write_wav(wav, AudioBuffer(samples=samples, sample_rate=22050), "float32")
        code = main(["classify", "--model", str(trained), "--wav", str(wav)])
        self.assert_data_error(code, capsys)


#: Values no data could make valid: (family, or "scaler" for the feature
#: scaler, parameter, value).
INVALID_VALUES = [
    ("knn", "k", 0),
    ("knn", "k", True),
    ("knn", "metric", "cosine"),
    ("knn", "weights", "inverse"),
    ("gnb", "var_floor", -1.0),
    ("logreg", "max_iter", -1),
    ("logreg", "learning_rate", 0.0),
    ("svm", "max_passes", 0),
    ("svm", "gamma", -0.5),
    ("svm", "tol", -1e-3),
    ("forest", "criterion", "mse"),
    ("forest", "n_estimators", 0),
    ("forest", "max_features", 1.5),
    ("forest", "max_depth", 0),
    ("forest", "min_samples_split", 1),
    ("mlp", "hidden", (8, 8)),
    ("mlp", "batch_size", 0),
    ("mlp", "seed", -1),
    ("scaler", "kind", "robust"),
]


@pytest.mark.parametrize(
    "family, name, value", INVALID_VALUES, ids=[f"{f}_{n}_{v}" for f, n, v in INVALID_VALUES]
)
def test_invalid_value_is_refused_on_every_way_in(
    small_corpus, extracted, family_bundles, tmp_path, capsys, family, name, value
):
    """The constructor, set_params, an experiment config, a loaded bundle and
    the CLI all refuse the value, and a refused set_params changes nothing."""
    cls = FeatureScaler if family == "scaler" else FAMILIES[family]
    with pytest.raises(ValidationError):
        cls(**{name: value})
    estimator = cls()
    with pytest.raises(ValidationError):
        estimator.set_params(**{name: value})
    assert estimator.get_params() == cls().get_params()
    if family == "scaler":
        configs = [{"scaler": value}]
    else:
        configs = [{"params": {name: value}}, {"grid": {name: [getattr(cls(), name), value]}}]
    for config in configs:
        with pytest.raises(ValidationError):
            ExperimentConfig(family="knn" if family == "scaler" else family, **config)

    source = family_bundles["knn" if family == "scaler" else family]
    payload = json.loads(source.read_text(encoding="utf-8"))
    stored = payload["scaler"] if family == "scaler" else payload["model"]["params"]
    stored[name] = value
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorruptArtifact):
        ModelBundle.load(bundle)

    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    if family == "scaler":
        options = [["train", "--family", "knn", "--scaler", text],
                   ["tune", "--family", "knn", "--grid", "k=3", "--scaler", text]]
    else:
        options = [["train", "--family", family, "--params", f"{name}={text}"],
                   ["tune", "--family", family, "--grid", f"{name}={text}"]]
    wav = small_corpus.base_dir / small_corpus.records[0].path
    model = tmp_path / "m.json"
    runs = [(argv + ["--features", str(extracted), "--out", str(model)], 1) for argv in options]
    runs.append((["classify", "--model", str(bundle), "--wav", str(wav)], 2))
    capsys.readouterr()
    for argv, expected_code in runs:
        TestCorruptInputs.assert_data_error(main(argv), capsys, expected_code)
    assert not model.exists()


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
