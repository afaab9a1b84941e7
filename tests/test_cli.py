"""End-to-end command-line tests on the small session corpus."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from raga_moodkit import audio
from raga_moodkit.audio import AudioBuffer, write_wav
from raga_moodkit.bundle import ModelBundle
from raga_moodkit.catalog import FeatureScaler, Rasa, load_manifest
from raga_moodkit.cli import build_parser, main, parse_grid, parse_params
from raga_moodkit.errors import CorruptArtifact, ValidationError
from raga_moodkit.experiments import ExperimentConfig, extract_features
from raga_moodkit.models import FAMILIES
from raga_moodkit.models.serialize import decode_array, encode_array
from raga_moodkit.recommender import recommend_transition, score_library
from raga_moodkit.store import read_store, sidecar_path
from raga_moodkit.synth import DEFAULT_RECIPES, SyntheticSpec, synth_signal


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

    def test_option_defaults_are_the_dataclass_defaults(self):
        parser = build_parser()
        config, spec = ExperimentConfig(), SyntheticSpec()
        for command in (["train"], ["tune", "--grid", "k=3"]):
            args = parser.parse_args([*command, "--features", "f", "--out", "o", "--family", "knn"])
            assert (args.scaler, args.split_level, args.val_fraction) == (
                config.scaler, config.split_level, config.val_fraction)
        args = parser.parse_args(["synth", "--out", "d"])
        assert (args.files_per_class, args.duration) == (spec.files_per_class, spec.duration_s)


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
        err = capsys.readouterr().err
        assert strict == 2
        assert "ghost (" in err and "missing.wav" in err and "Traceback" not in err
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

    def test_sidecar_does_not_depend_on_jobs(self, small_corpus, tmp_path, monkeypatch, capsys):
        manifest = str(small_corpus.manifest_path)
        sidecars = []
        for jobs in ("1", "2"):
            workdir = tmp_path / jobs
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            code = main(["extract", "--manifest", manifest, "--out", "features.csv",
                         "--plan", "0:5", "--jobs", jobs])
            assert code == 0
            assert json.loads(capsys.readouterr().out)["jobs"] == int(jobs)
            sidecars.append(sidecar_path("features.csv").read_bytes())
        assert sidecars[0] == sidecars[1]
        assert "jobs" not in json.loads(sidecars[0])["config"]
        # a sidecar written when the echo still carried the worker count loads
        meta = json.loads(sidecars[0])
        meta["config"]["jobs"] = 2
        sidecar_path("features.csv").write_text(json.dumps(meta), encoding="utf-8")
        assert len(read_store("features.csv")) == len(small_corpus.records)


class TestBlasThreads:
    """Features do not depend on how many threads BLAS runs."""

    def test_store_is_byte_equal_at_one_two_and_four_threads(self, tmp_path):
        left = synth_signal(DEFAULT_RECIPES[Rasa.KARUNA], 24.0, 44100, np.random.default_rng(1))
        right = np.clip(0.8 * left + 0.01 * np.sin(np.arange(len(left)) / 7.0), -1.0, 1.0)
        write_wav(tmp_path / "stereo.wav",
                  AudioBuffer(samples=np.stack([left, right], axis=1), sample_rate=44100), "pcm24")
        (tmp_path / "manifest.csv").write_text(
            "id,path,title,raga,language,genre\n"
            "stereo,stereo.wav,Stereo,Mohana,Instrumental,Indian Classical\n")
        src = Path(audio.__file__).resolve().parents[1]
        stores = []
        for threads in ("1", "2", "4"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
            workdir = tmp_path / threads
            workdir.mkdir()
            done = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from raga_moodkit.cli import main; sys.exit(main(sys.argv[1:]))",
                 "extract", "--manifest", str(tmp_path / "manifest.csv"), "--out", "features.csv",
                 "--plan", "0:12,12:12"],
                cwd=workdir, env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            store = workdir / "features.csv"
            stores.append((store.read_bytes(), sidecar_path(store).read_bytes()))
        assert len(read_store(tmp_path / "1" / "features.csv")) == 2
        assert stores[1] == stores[0] and stores[2] == stores[0]


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
        assert report["train_accuracy"] == stored["train_accuracy"]
        assert report["validation_accuracy"] == stored["validation_accuracy"]

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

    def test_recommend_playlist(self, extracted, trained, tmp_path, capsys):
        out = tmp_path / "playlist.json"
        code = main(
            [
                "recommend",
                "--model", str(trained),
                "--features", str(extracted),
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

    def test_recommend_unknown_rasa(self, trained, extracted):
        code = main(
            [
                "recommend",
                "--model", str(trained),
                "--features", str(extracted),
                "--from", "Bogus",
                "--to", "Shantha",
            ]
        )
        assert code == 1

    def test_recommend_length_one_takes_top_aspired(self, extracted, trained, tmp_path):
        out = tmp_path / "one.json"
        code = main(
            [
                "recommend",
                "--model", str(trained),
                "--features", str(extracted),
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

    def test_recommend_from_store_matches_extracting_the_manifest(
        self, small_corpus, extracted, trained, tmp_path, capsys
    ):
        # the reference decodes and featurizes the corpus with the bundle's own
        # feature setup; the store's repr floats read back to the same bits
        bundle = ModelBundle.load(trained)
        records = load_manifest(small_corpus.manifest_path)
        table, _ = extract_features(records, bundle.plan, bundle.mfcc, small_corpus.base_dir)
        library = score_library(bundle, table)
        for current, aspired, length in [("Karuna", "Shantha", 5), ("Veera", "Adhbhutha", 40)]:
            playlist = recommend_transition(library, current, aspired, length)
            out = tmp_path / f"{current}-{aspired}.json"
            code = main(["recommend", "--model", str(trained), "--features", str(extracted),
                         "--from", current, "--to", aspired, "--length", str(length),
                         "--out", str(out)])
            assert code == 0
            assert capsys.readouterr().out == (
                f"transition {current} -> {aspired} ({len(playlist.slots)} of {len(library)} songs)\n"
                + playlist.to_text()
            )
            assert out.read_text(encoding="utf-8") == playlist.to_json()


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
         "knn_two_classes", "short_scaler", "knn_mfcc_unknown_key", "knn_mfcc_hop_text",
         "knn_mfcc_fft_size_1000", "knn_plan_triple", "knn_plan_text", "knn_plan_negative_start",
         "split_list", "metrics_list", "config_list"],
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
        elif damage.startswith("knn_mfcc"):
            name, value = {"unknown_key": ("bogus", 1), "hop_text": ("hop", "x"),
                           "fft_size_1000": ("fft_size", 1000)}[damage[len("knn_mfcc_"):]]
            payload["feature_fingerprint"][name] = value
        elif damage.startswith("knn_plan"):
            payload["config"]["plan"] = {"triple": [[1, 2, 3]], "text": "abc",
                                         "negative_start": [[-1, 5]]}[damage[len("knn_plan_"):]]
        elif damage.endswith("_list"):
            key = damage[:-len("_list")]
            payload[key] = list(payload[key].items())
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
            ["recommend", "--model", str(model), "--features", str(extracted),
             "--from", "Karuna", "--to", "Shantha"],
        ]
        for argv in runs:
            self.assert_data_error(main(argv), capsys)

    @pytest.mark.parametrize("damage", ["knn_short_labels", "mlp_cut_layers"])
    def test_stored_arrays_that_disagree(self, extracted, family_bundles, tmp_path, capsys, damage):
        # a knn bundle with one label fewer than its rows used to end scoring in
        # an IndexError traceback; an MLP whose layers skip hidden sizes loaded
        # and scored through the layers that were left
        family = damage.split("_")[0]
        payload = json.loads(family_bundles[family].read_text(encoding="utf-8"))
        params = payload["model"]["params"]
        if family == "knn":
            params["y_index"] = encode_array(decode_array(params["y_index"])[:-1])
        else:
            params["weights"] = [params["weights"][0], params["weights"][-1]]
            params["biases"] = [params["biases"][0], params["biases"][-1]]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CorruptArtifact, match="stored y_index has shape|stored weights is not a list"):
            ModelBundle.load(model)
        for command in ("evaluate", "recommend"):
            argv = [command, "--model", str(model), "--features", str(extracted)]
            if command == "recommend":
                argv += ["--from", "Karuna", "--to", "Shantha"]
            self.assert_data_error(main(argv), capsys)

    def test_bundle_without_plan(self, small_corpus, extracted, trained, tmp_path, capsys):
        # every bundle the program saves records its table's segment plan and
        # MFCC settings; serving one without them would have to guess how to
        # cut and featurize the audio, and could not tell which rows fit it
        wav = small_corpus.base_dir / small_corpus.records[0].path
        for missing in ("plan", "feature_fingerprint"):
            payload = json.loads(trained.read_text(encoding="utf-8"))
            if missing == "plan":
                del payload["config"]["plan"]
            else:
                del payload["feature_fingerprint"]
            model = tmp_path / f"no_{missing}.json"
            model.write_text(json.dumps(payload), encoding="utf-8")
            with pytest.raises(CorruptArtifact):
                ModelBundle.load(model)
            for argv in (
                ["classify", "--model", str(model), "--wav", str(wav)],
                ["evaluate", "--model", str(model), "--features", str(extracted)],
                ["recommend", "--model", str(model), "--features", str(extracted),
                 "--from", "Karuna", "--to", "Shantha"],
            ):
                assert "segment plan" in self.assert_data_error(main(argv), capsys)

    @pytest.mark.parametrize(
        "damage",
        ["no_mfcc", "unknown_mfcc_key", "store_version_2", "fft_size_1000", "negative_cut_start",
         "renamed_column", "truncated_rows", "header_only"],
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
        elif damage == "renamed_column":
            store.write_text(
                extracted.read_text(encoding="utf-8").replace(",c1,", ",c01,", 1), encoding="utf-8"
            )
        else:
            lines = extracted.read_text(encoding="utf-8").splitlines(keepends=True)
            kept = lines[:-5] if damage == "truncated_rows" else lines[:1]
            store.write_text("".join(kept), encoding="utf-8")
        sidecar_path(store).write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(CorruptArtifact):
            read_store(store)
        code = main(["train", "--features", str(store), "--out", str(tmp_path / "m.json"),
                     "--family", "knn"])
        self.assert_data_error(code, capsys)

    def test_recommend_refuses_a_store_cut_by_another_plan(
        self, small_corpus, trained, tmp_path, capsys
    ):
        # the first cut's segment ids match the bisample store's, so evaluate
        # would score them on the recorded split roles if it let them in
        store = tmp_path / "first60.csv"
        assert main(["extract", "--manifest", str(small_corpus.manifest_path), "--out", str(store),
                     "--plan", "first60"]) == 0
        capsys.readouterr()
        for command, options in (("recommend", ["--from", "Karuna", "--to", "Shantha"]),
                                 ("evaluate", [])):
            out = tmp_path / f"{command}.json"
            code = main([command, "--model", str(trained), "--features", str(store),
                         "--out", str(out), *options])
            err = self.assert_data_error(code, capsys)
            assert "segment plan 0s-60s" in err and "0s-60s and 20s-80s" in err
            assert not out.exists()

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
            ["train", "--family", "svm", "--params", "gamma=inf"],
            ["train", "--family", "gnb", "--params", "var_floor=inf"],
        ],
        ids=["unknown_param", "unknown_grid_name", "knn_k_text", "svm_C_text", "mlp_hidden_text",
             "gnb_var_floor_zero", "svm_gamma_nan", "svm_C_nan", "svm_max_passes_zero",
             "svm_gamma_inf", "gnb_var_floor_inf"],
    )
    def test_bad_model_params_are_validation_errors(self, extracted, tmp_path, capsys, argv):
        model = tmp_path / "m.json"
        code = main(argv + ["--features", str(extracted), "--out", str(model)])
        self.assert_data_error(code, capsys, expected_code=1)
        assert not model.exists()

    @pytest.mark.parametrize(
        "argv, env_seed",
        [
            (["extract", "--plan", "nan:5"], None),
            (["extract", "--plan", "0:inf"], None),
            (["extract", "--log-floor", "nan"], None),
            (["extract", "--log-floor", "inf"], None),
            (["extract", "--jobs", "0"], None),
            (["extract", "--jobs", "-3"], None),
            (["train", "--family", "knn", "--seed", "-1"], None),
            (["tune", "--family", "knn", "--grid", "k=3,5", "--cv", "1"], None),
            (["synth", "--seed", "-1"], None),
            (["synth", "--duration", "nan"], None),
            (["synth", "--duration", "1e-9"], None),
            (["synth"], "abc"),
            (["train", "--family", "knn"], "-1"),
            (["recommend", "--length", "0"], None),
            (["recommend", "--length", "-3"], None),
        ],
        ids=["plan_start_nan", "plan_duration_inf", "log_floor_nan", "log_floor_inf", "jobs_zero",
             "jobs_negative", "train_seed_negative", "tune_cv_one", "synth_seed_negative",
             "synth_duration_nan", "synth_duration_tiny", "env_seed_text", "env_seed_negative",
             "recommend_length_zero", "recommend_length_negative"],
    )
    def test_bad_settings_are_validation_errors(
        self, small_corpus, extracted, trained, tmp_path, capsys, monkeypatch, argv, env_seed
    ):
        if env_seed is not None:
            monkeypatch.setenv("RAGA_MOODKIT_SEED", env_seed)
        inputs = {
            "extract": ["--manifest", str(small_corpus.manifest_path)],
            "train": ["--features", str(extracted)],
            "tune": ["--features", str(extracted)],
            "synth": ["--files-per-class", "1"],
            "recommend": ["--model", str(trained), "--features", str(extracted),
                          "--from", "Karuna", "--to", "Shantha"],
        }
        out = tmp_path / "out"
        code = main(argv + inputs[argv[0]] + ["--out", str(out)])
        self.assert_data_error(code, capsys, expected_code=1)
        assert not out.exists()

    def test_huge_finite_cuts(self, small_corpus, tmp_path, capsys):
        # a start past every file is that file's failure; a huge duration
        # takes the whole file as a short tail, as 0:1000 does
        manifest = str(small_corpus.manifest_path)
        code = main(["extract", "--manifest", manifest, "--plan", "1e305:1",
                     "--out", str(tmp_path / "late.csv")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert err.count("is beyond the 21.000s buffer") == len(small_corpus.records)
        assert err.endswith("error: no features extracted; every file failed\n")
        stores = {}
        for plan in ("0:1e305", "0:1000"):
            stores[plan] = tmp_path / f"{plan}.csv"
            code = main(["extract", "--manifest", manifest, "--plan", plan, "--out", str(stores[plan])])
            assert code == 0
        assert stores["0:1e305"].read_bytes() == stores["0:1000"].read_bytes()

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

    def test_missing_files_exit_2(self, small_corpus, extracted, trained, tmp_path, capsys):
        # OSError shares the data-error exit code
        wav = small_corpus.base_dir / small_corpus.records[0].path
        for argv in (
            ["classify", "--model", str(trained), "--wav", str(tmp_path / "absent.wav")],
            ["classify", "--model", str(tmp_path / "absent.json"), "--wav", str(wav)],
            ["evaluate", "--model", str(trained), "--features", str(extracted),
             "--out", str(tmp_path / "absent" / "report.json")],
        ):
            self.assert_data_error(main(argv), capsys)

    def test_absent_store_is_named_and_exits_2(self, extracted, trained, tmp_path, capsys):
        absent = str(tmp_path / "absent.csv")
        out = tmp_path / "out.json"
        for argv in (
            ["evaluate", "--features", absent, "--model", str(trained), "--out", str(out)],
            ["tune", "--features", absent, "--out", str(out), "--family", "svm", "--grid", "C=1"],
            ["recommend", "--model", str(trained), "--features", absent,
             "--from", "Karuna", "--to", "Shantha", "--out", str(out)],
        ):
            err = self.assert_data_error(main(argv), capsys)
            assert absent in err and "sidecar" not in err
            assert not out.exists()
        # a store that exists without its sidecar is still refused as not self-describing
        bare = tmp_path / "bare.csv"
        bare.write_bytes(extracted.read_bytes())
        code = main(["evaluate", "--features", str(bare), "--model", str(trained)])
        assert "missing sidecar" in self.assert_data_error(code, capsys, expected_code=1)

    def test_repeated_segment_id(self, extracted, trained, tmp_path, capsys):
        # a split records each row's side by its segment id, so a store that
        # repeats an id cannot be split or scored by its recorded sides
        store = tmp_path / "features.csv"
        lines = extracted.read_text(encoding="utf-8").splitlines()
        store.write_text("\n".join(lines + [lines[1]]) + "\n", encoding="utf-8")
        meta = json.loads(sidecar_path(extracted).read_text(encoding="utf-8"))
        meta["n_rows"] += 1
        sidecar_path(store).write_text(json.dumps(meta), encoding="utf-8")
        repeated = lines[1].split(",")[0]
        for argv in (
            ["train", "--family", "knn", "--out", str(tmp_path / "m.json")],
            ["evaluate", "--model", str(trained)],
        ):
            err = self.assert_data_error(main(argv + ["--features", str(store)]), capsys)
            assert f"segment id {repeated!r} names more than one row" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_store_value(self, extracted, trained, tmp_path, capsys, value):
        store = tmp_path / "features.csv"
        lines = extracted.read_text(encoding="utf-8").splitlines()
        fields = lines[3].split(",")
        fields[2 + 5] = value
        lines[3] = ",".join(fields)
        store.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sidecar_path(store).write_bytes(sidecar_path(extracted).read_bytes())
        with pytest.raises(CorruptArtifact, match=f"features.csv line 4: c5 is {value}$"):
            read_store(store)
        for argv in (
            ["tune", "--family", "knn", "--grid", "k=3", "--out", str(tmp_path / "m.json")],
            ["evaluate", "--model", str(trained)],
            ["recommend", "--model", str(trained), "--from", "Karuna", "--to", "Shantha"],
        ):
            err = self.assert_data_error(main(argv + ["--features", str(store)]), capsys)
            assert "features.csv line 4" in err


class TestFilesRecordingTheWindow:
    """Stores and bundles written while the Hann window was an MFCC setting
    record ``"window": "hann"`` in every MFCC settings object."""

    @pytest.fixture
    def copies(self, extracted, trained, tmp_path):
        """``copies(window)``: a directory holding the shared store and bundle
        as ``features.csv`` and ``model.json``, recording ``window`` unless
        it is None."""

        def write(window):
            out = tmp_path / (window or "current")
            out.mkdir()
            (out / "features.csv").write_bytes(extracted.read_bytes())
            for source, copy in ((sidecar_path(extracted), sidecar_path(out / "features.csv")),
                                 (trained, out / "model.json")):
                payload = json.loads(source.read_text(encoding="utf-8"))
                for settings in (payload.get("mfcc"), payload.get("feature_fingerprint"),
                                 payload["config"]["mfcc"]):
                    if settings is not None and window is not None:
                        settings["window"] = window
                copy.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            return out

        return write

    @staticmethod
    def runs(store, model, wav):
        return [
            ["evaluate", "--model", str(model), "--features", str(store)],
            ["classify", "--model", str(model), "--wav", str(wav)],
            ["recommend", "--model", str(model), "--features", str(store),
             "--from", "Karuna", "--to", "Shantha", "--length", "4"],
        ]

    def test_hann_files_serve_byte_identically(self, small_corpus, copies, monkeypatch, capsys):
        current, recorded = copies(None), copies("hann")
        assert '"window": "hann"' in (recorded / "model.json").read_text(encoding="utf-8")
        assert read_store(recorded / "features.csv").mfcc == read_store(current / "features.csv").mfcc
        assert ModelBundle.load(recorded / "model.json").mfcc == ModelBundle.load(current / "model.json").mfcc
        wav = small_corpus.base_dir / small_corpus.records[0].path
        outputs = []
        for directory in (current, recorded):
            monkeypatch.chdir(directory)
            capsys.readouterr()
            for argv in self.runs("features.csv", "model.json", wav):
                assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_other_window_is_corrupt(self, small_corpus, extracted, trained, copies, capsys):
        hamming = copies("hamming")
        store, model = hamming / "features.csv", hamming / "model.json"
        with pytest.raises(CorruptArtifact, match="window 'hamming'"):
            read_store(store)
        with pytest.raises(CorruptArtifact, match="window 'hamming'"):
            ModelBundle.load(model)
        wav = small_corpus.base_dir / small_corpus.records[0].path
        capsys.readouterr()
        for argv in self.runs(store, trained, wav)[::2] + self.runs(extracted, model, wav):
            err = TestCorruptInputs.assert_data_error(main(argv), capsys)
            assert "window 'hamming'" in err


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

    def test_jobs_change_neither_corpus_nor_output(self, tmp_path, capsys):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            argv = ["synth", "--out", str(out), "--files-per-class", "1", "--duration", "0.5",
                    "--seed", "3", "--jobs", jobs]
            assert main(argv) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            outputs.append((capsys.readouterr().out.replace(str(out), "OUT"), files))
        assert len(outputs[0][1]) == 7
        assert outputs[0] == outputs[1]
        code = main(["synth", "--out", str(tmp_path / "none"), "--jobs", "0"])
        TestCorruptInputs.assert_data_error(code, capsys, expected_code=1)
        assert not (tmp_path / "none").exists()
