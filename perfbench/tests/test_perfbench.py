"""Tests for the benchmark's own code, on inputs small enough to run in seconds.

Each output check is shown passing on the program's output and failing on a
deliberately wrong one.

    python3 -m pytest perfbench/tests -q
"""
import base64
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from raga_moodkit import audio, recommender  # noqa: E402
from raga_moodkit.bundle import ModelBundle  # noqa: E402
from raga_moodkit.catalog import Rasa  # noqa: E402
from raga_moodkit.mfcc import MfccConfig, segment_features  # noqa: E402
from raga_moodkit.models.svm import RbfSvmClassifier  # noqa: E402
from raga_moodkit.store import write_correlation_csv  # noqa: E402
import workloads  # noqa: E402
from workloads import Round, tail_percentile  # noqa: E402


def _row_text(values):
    return tuple(repr(float(v)) for v in values)


def test_reference_mfcc_agrees_with_program_and_flags_a_wrong_row():
    rng = np.random.default_rng(0)
    signal = inputs.render(Rasa.SHANTHA, 1.0, inputs.NATIVE_RATE, rng)
    buffer = audio.AudioBuffer(samples=signal, sample_rate=inputs.NATIVE_RATE)
    program = segment_features(buffer, MfccConfig()).values
    reference = checks.reference_mfcc(signal, inputs.NATIVE_RATE)
    rows = {"a:0": ("Shantha", _row_text(program))}
    assert checks.check_reference_rows(rows, {"a:0": reference}) == []

    wrong = {"a:0": ("Shantha", _row_text(program + 1e-3))}
    assert checks.check_reference_rows(wrong, {"a:0": reference})
    assert checks.check_reference_rows({}, {"a:0": reference})


def test_centroid_check_flags_a_row_nearest_another_class():
    centroids = {"Karuna": np.zeros(3), "Veera": np.full(3, 10.0)}
    good = {"x:0": ("Karuna", _row_text([1.0, 0.0, 0.0]))}
    problems, margins = checks.nearest_centroid_margins(good, centroids)
    assert problems == [] and margins["x:0"] > 5
    bad = {"x:0": ("Karuna", _row_text([9.0, 9.0, 9.0]))}
    assert checks.nearest_centroid_margins(bad, centroids)[0]


def test_twin_check_flags_rows_that_differ():
    rows = {"plain:0": ("Karuna", ("1.0", "2.0")), "ext:0": ("Karuna", ("1.0", "2.0"))}
    assert checks.check_twin_rows(rows, "ext", "plain") == []
    rows["ext:0"] = ("Karuna", ("1.0", "2.5"))
    assert checks.check_twin_rows(rows, "ext", "plain")
    # A file that still fails to decode has no rows to compare.
    assert checks.check_twin_rows({"plain:0": rows["plain:0"]}, "ext", "plain") == []


def test_correlation_check_flags_a_wrong_matrix(tmp_path):
    X = np.random.default_rng(1).standard_normal((6, 4))
    rows = {f"s:{i}": ("Veera", _row_text(x)) for i, x in enumerate(X)}
    path = tmp_path / "corr.csv"
    write_correlation_csv(np.corrcoef(X, rowvar=False), path)
    assert checks.check_correlation(path, rows) == []
    write_correlation_csv(np.eye(4), path)
    assert checks.check_correlation(path, rows)


@pytest.fixture(scope="module")
def svm_bundle():
    rng = np.random.default_rng(2)
    X = np.vstack([rng.normal(0, 1, (15, 3)), rng.normal(2, 1, (15, 3)), rng.normal(-2, 1, (15, 3))])
    y = np.repeat(["Karuna", "Shantha", "Veera"], 15)
    model = RbfSvmClassifier(C=10.0, gamma=0.5).fit(X, y)
    return ModelBundle(model=model, scaler=None, feature_fingerprint={}).to_dict()


def _edit_first_pair(bundle, edit):
    bundle = json.loads(json.dumps(bundle))
    pair = bundle["model"]["params"]["pairs"][0]
    coef = checks._decode(pair["dual_coef"]).copy()
    edit(pair, coef)
    pair["dual_coef"]["data"] = base64.b64encode(coef.astype("<f8").tobytes()).decode()
    return bundle


def test_svm_bundle_check_passes_on_a_trained_model(svm_bundle):
    problems, worst = checks.check_svm_bundle(svm_bundle)
    assert problems == [] and worst <= 1e-3


def test_svm_bundle_check_flags_a_shifted_bias(svm_bundle):
    def shift(pair, coef):
        pair["bias"] += 0.5
    assert any("KKT" in p for p in checks.check_svm_bundle(_edit_first_pair(svm_bundle, shift))[0])


def test_svm_bundle_check_flags_unbalanced_coefficients(svm_bundle):
    def unbalance(pair, coef):
        coef[0] *= 0.5
    assert any("sum" in p for p in checks.check_svm_bundle(_edit_first_pair(svm_bundle, unbalance))[0])


def test_svm_bundle_check_flags_a_coefficient_above_c(svm_bundle):
    bundle = json.loads(json.dumps(svm_bundle))
    bundle["model"]["params"]["C"] = 1e-6
    assert any("exceeds C" in p for p in checks.check_svm_bundle(bundle)[0])


def _classify(predicted, scores):
    return {"predicted": predicted, "scores": scores}


def test_classify_check():
    classes = {0: "Karuna", 1: "Veera"}
    good = [(0, _classify("Karuna", {"Karuna": 0.75, "Veera": 0.25})),
            (1, _classify("Veera", {"Karuna": 0.25, "Veera": 0.75}))]
    assert checks.check_classify(good, classes) == ([], 1.0)

    unnormalised = [(0, _classify("Karuna", {"Karuna": 0.75, "Veera": 0.5}))]
    assert checks.check_classify(unnormalised, classes)[0]
    not_argmax = [(0, _classify("Veera", {"Karuna": 0.75, "Veera": 0.25}))]
    assert checks.check_classify(not_argmax, classes)[0]
    wrong_class = [(0, _classify("Veera", {"Karuna": 0.25, "Veera": 0.75})), good[1]]
    problems, accuracy = checks.check_classify(wrong_class, classes)
    assert accuracy == 0.5 and problems


def test_playlist_oracle_matches_program_and_flags_wrong_playlists():
    rng = np.random.default_rng(3)
    scores = rng.dirichlet(np.ones(6), size=40)
    scores[7] = scores[3]  # a tie, broken by the smaller id
    library = recommender.ScoredLibrary(song_ids=[f"s{i:02d}" for i in range(40)], scores=scores)
    for length in (1, 5, 12):
        slots = [(s.song_id, s.weight, s.blended_score)
                 for s in recommender.recommend_transition(library, "Karuna", "Veera", length).slots]
        expected = checks.greedy_playlist(library.song_ids, library.column("Karuna"),
                                          library.column("Veera"), length)
        assert checks.check_playlist(slots, expected) == []

    assert checks.check_playlist(slots[::-1], expected)
    duplicated = slots[:-1] + [slots[0]]
    assert any("repeats" in p for p in checks.check_playlist(duplicated, expected))


def test_extensible_file_keeps_the_twin_samples():
    plain = inputs.wav_bytes(np.zeros((10, 2)) + 0.25, 44100, "pcm24")
    extensible = inputs.to_extensible(plain)
    assert struct.unpack_from("<I", extensible, 4)[0] == len(extensible) - 8
    assert struct.unpack_from("<IH", extensible, 16) == (40, 0xFFFE)
    assert extensible.endswith(plain[36:])


def test_failed_tune_commands_add_no_units_and_fail_the_check(monkeypatch, tmp_path):
    stores = [tmp_path / f"store{i}" / "features.csv" for i in range(2)]
    for store in stores:
        store.parent.mkdir()

    def fake_run_cli(argv):
        report = Path(argv[argv.index("--report-out") + 1])
        if "store0" in str(report):
            return 2, "", "error: broken store", 0.01
        rows = [{"params": {"C": 1.0}, "validation_accuracy": None, "error": "no convergence"}]
        rows += [{"params": {}, "validation_accuracy": 1.0, "error": None}] * (workloads.GRID_POINTS - 1)
        report.write_text(json.dumps({"grid_rows": rows}))
        Path(argv[argv.index("--out") + 1]).write_text("{}")
        return 0, "table\n{\n}", "", 2.0

    monkeypatch.setattr(workloads, "run_cli", fake_run_cli)
    tune = workloads.Tune(seed=0)
    state = workloads.TuneState(tmp_path, stores)
    done = tune.run_round(state, 0)
    points = workloads.GRID_POINTS
    assert (done.attempted, done.failed, done.units) == (2 * points, points + 1, points - 1)
    assert done.wall_s == 2.0
    problems = tune.check(state)
    assert any("exited 2" in p for p in problems)
    assert any("no convergence" in p for p in problems)


def test_ms_per_unit_is_missing_when_nothing_succeeded():
    assert workloads.Ingest(seed=0).ms_per_unit([Round(1.0, 5, 5, 0.0)]) is None
    assert workloads.Ingest(seed=0).ms_per_unit([Round(1.0, 5, 1, 4.0)]) == 250.0


def _serve_round(classify_ms, playlist_ms):
    latencies = {"classify": [ms / 1e3 for ms in classify_ms]}
    latencies.update({f"playlist{n}": [ms / 1e3] for n, ms in zip(workloads.PLAYLIST_LENGTHS, playlist_ms)})
    return Round(0.0, 0, 0, 0.0, latencies)


def test_serve_ms_per_unit_does_not_depend_on_the_request_mix():
    serve = workloads.Serve(seed=0)
    one = serve.ms_per_unit([_serve_round([10.0], [20.0, 30.0, 40.0, 50.0])])
    many = serve.ms_per_unit([_serve_round([10.0] * 7, [20.0, 30.0, 40.0, 50.0])] * 3)
    assert one == pytest.approx(10.0 + 35.0) and many == pytest.approx(one)
    assert serve.ms_per_unit([_serve_round([], [20.0, 30.0, 40.0, 50.0])]) is None


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(39) is None
    assert tail_percentile(40) == 75
    assert tail_percentile(100) == 90 and tail_percentile(1000) == 90


def test_self_times_subtract_direct_children():
    spans = [["a", 0, 100, -1], ["b", 10, 60, 0], ["c", 20, 30, 1], ["d", 70, 80, 0]]
    assert tracing.self_times_ns(spans) == [40, 40, 10, 10]


def test_tracer_wraps_and_restores_and_reports_renamed_functions_missing(monkeypatch):
    from raga_moodkit import cli, experiments

    original = audio.read_wav
    layers = tracing.LAYERS + (tracing.Layer("audio.gone", "raga_moodkit.audio", "no_such_function"),)
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.read_wav is experiments.read_wav is audio.read_wav is not original
        buffer = audio.AudioBuffer(samples=np.zeros(22050), sample_rate=22050)
        audio.to_mono(buffer)
    finally:
        tracer.uninstall()
    assert cli.read_wav is original and audio.read_wav is original
    assert tracer.missing == {"audio.gone"}
    metrics = tracing.layer_metrics(tracer, (0, 1), untraced_s=0.0)
    assert "audio.gone_s" not in metrics
    assert metrics["audio.to_mono_s"][0] > 0
    assert metrics["models.svm.sweeps"] == (0, "count")


def test_run_fails_without_the_toolkit_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_the_metrics_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    traced = tracing.layer_metrics(tracing.Tracer(), (0, 1), untraced_s=0.0)
    assert [m["name"] for m in spec["per_layer"]] and \
        {m["name"] for m in spec["per_layer"]} == set(traced)
    assert all(traced[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "peak_rss_mb", "ms_per_unit"}
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
