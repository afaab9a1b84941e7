"""Acceptance harness: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end criteria
use the session-scoped 6 x 20 x 90 s synthetic corpus, so the first of them
pays the extraction cost for all.
"""
import contextlib
import json
import math
import time

import numpy as np
import pytest

from raga_moodkit.catalog import RASAS, rasa_for_raga
from raga_moodkit.cli import main
from raga_moodkit.errors import NoEligibleModel, UnknownRaga
from raga_moodkit.experiments import (
    ExperimentConfig,
    ExperimentReport,
    grid_points,
    run_on_features,
    select_final_model,
)
from raga_moodkit.audio import AudioBuffer, SegmentPlan
from raga_moodkit.mfcc import (
    _CHUNK_FRAMES,
    MfccConfig,
    build_filterbank,
    dct_ii,
    log_mel_energies,
    mfcc_frames,
    power_spectrum,
)
from raga_moodkit.models import KnnClassifier, make_classifier
from raga_moodkit.models.linear import _loss_and_grad
from raga_moodkit.models.mlp import MlpClassifier, loss_and_grads
from raga_moodkit.models.svm import smo_train_binary
from raga_moodkit.recommender import ScoredLibrary, recommend_transition
from raga_moodkit.store import FeatureTable
from svm_oracles import kkt_violations


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number:02d}] FAIL  {description}")
        raise
    print(f"[acceptance {number:02d}] PASS  {description}")


def test_c01_fft_matches_naive_dft():
    with criterion(1, "mfcc_frames equals naive DFT -> power -> log mel -> DCT per frame "
                      "(rel err < 1e-9) across a batch boundary, < 10 s"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        for config in (MfccConfig(fft_size=256, hop=64, n_filters=12, n_coeffs=8), MfccConfig()):
            size, hop = config.fft_size, config.hop
            n_frames = _CHUNK_FRAMES + 9
            samples = rng.uniform(-0.5, 0.5, (n_frames - 1) * hop + 17)
            ours = mfcc_frames(AudioBuffer(samples=samples, sample_rate=config.sample_rate), config)
            assert ours.shape == (n_frames, config.n_coeffs)

            padded = np.zeros((n_frames - 1) * hop + size)
            padded[: len(samples)] = samples
            window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(size) / (size - 1))
            frames = np.vstack([padded[i * hop : i * hop + size] for i in range(n_frames)]) * window
            n = np.arange(size)
            naive = frames @ np.exp(-2j * np.pi * np.outer(n, n) / size)
            energies = log_mel_energies(power_spectrum(naive[:, : size // 2 + 1]), build_filterbank(config),
                                        config.log_floor)
            for frame, expected in zip(ours, dct_ii(energies, config.n_coeffs)):
                assert np.max(np.abs(frame - expected)) / np.max(np.abs(expected)) < 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"FFT oracle took {elapsed:.1f}s"


def test_c02_filterbank_partition_of_unity():
    with criterion(2, "filter rows sum to 1 +- 1e-9 on the covered band (defaults)"):
        config = MfccConfig()  # M=40, N=2048, 22050 Hz
        bank = build_filterbank(config)
        k_first = math.ceil(bank.boundaries[1])
        k_last = math.floor(bank.boundaries[-2])
        assert k_last > k_first > 0
        sums = bank.weights.sum(axis=0)[k_first : k_last + 1]
        assert np.all(sums >= 1.0 - 1e-9)
        assert np.all(sums <= 1.0 + 1e-9)


def test_c03_dct_matches_double_loop():
    with criterion(3, "cosine transform matches brute force to 1e-12; constant input collapses"):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            values = rng.standard_normal(40)
            ours = dct_ii(values)
            brute = np.array(
                [
                    sum(values[m] * math.cos(math.pi * n * (m + 0.5) / 40) for m in range(40))
                    for n in range(40)
                ]
            )
            assert np.max(np.abs(ours - brute)) <= 1e-12 * max(1.0, np.max(np.abs(brute)))
        constant = dct_ii(np.full(40, 3.7))
        assert constant[0] == pytest.approx(40 * 3.7)
        assert np.max(np.abs(constant[1:])) < 1e-10


def test_c04_bi_sampling_doubles_the_corpus(corpus, feature_store):
    with criterion(4, "two-segment plan yields exactly 2N rows for N=120 files"):
        n_files = len(corpus.records)
        assert n_files == 120
        assert len(feature_store) == 2 * n_files
        per_song = {}
        for sid in feature_store.song_ids:
            per_song[sid] = per_song.get(sid, 0) + 1
        assert all(count == 2 for count in per_song.values())


# Column-by-column re-declaration of the association table, as printed.
TABLE_COLUMNS = {
    "Adhbhutha": ["Abheri/Bhimpalasi", "Arabhi", "Desh", "Hindola", "Malayamarutham"],
    "Haasya": ["Aathana", "Kunthalavarali", "Reethigowla", "Shankarabharanam"],
    "Karuna": [
        "Ahibhairav", "Bageshri", "kanada", "Lalith", "madhuvanti",
        "Punnagavarali", "Shivaranjani", "Shubhapanthuvarali",
    ],
    "Shantha": [
        "Kalavathi/valachi", "Mayamalavagowla", "Sama",
        "Shuddha Saveri - Durga", "Sindhu Bhairavi", "Yadhukula kambhodhi",
    ],
    "Shringara": [
        "Behaag", "Brindavani", "Kalyani", "Kamas", "Kapi",
        "Karaharapriya", "Pahaadi", "YamanKalyani",
    ],
    "Veera": ["Kedaragowla", "Madhyamavathi", "Meghamalhaar", "Mohana"],
}


def test_c05_raga_table_exhaustive():
    with criterion(5, "all 35 table entries and alias forms resolve; unlisted names error"):
        total = sum(len(v) for v in TABLE_COLUMNS.values())
        assert total == 35
        for rasa_name, ragas in TABLE_COLUMNS.items():
            for raga in ragas:
                assert rasa_for_raga(raga).value == rasa_name, raga
        for alias, rasa_name in [
            ("Bhimpalasi", "Adhbhutha"),
            ("valachi", "Shantha"),
            ("Durga", "Shantha"),
            ("Abheri", "Adhbhutha"),
            ("Kalavathi", "Shantha"),
            ("Shuddha Saveri", "Shantha"),
        ]:
            assert rasa_for_raga(alias).value == rasa_name, alias
        for unknown in ("Todi", "Bhairavi", "Darbari Kanada junk", ""):
            with pytest.raises(UnknownRaga):
                rasa_for_raga(unknown)


def _oracle_distances(X_train, queries, metric):
    out = np.empty((len(queries), len(X_train)))
    for qi, q in enumerate(queries):
        for ti, t in enumerate(X_train):
            if metric == "euclidean":
                out[qi, ti] = math.sqrt(sum((a - b) ** 2 for a, b in zip(q, t)))
            elif metric == "manhattan":
                out[qi, ti] = sum(abs(a - b) for a, b in zip(q, t))
            else:
                out[qi, ti] = sum(1 for a, b in zip(q, t) if a != b) / len(q)
    return out


def test_c06_knn_equals_exhaustive_scan():
    with criterion(6, "neighbour classifier matches the exhaustive-scan oracle on every combination"):
        rng = np.random.default_rng(106)
        X = rng.standard_normal((200, 40))
        y = rng.choice(RASAS, 200)
        queries = rng.standard_normal((50, 40))
        classes = sorted(set(y.tolist()))
        for metric in ("euclidean", "manhattan", "hamming"):
            distances = _oracle_distances(X, queries, metric)
            for weights in ("uniform", "distance"):
                for k in (1, 3, 7, 15):
                    model = KnnClassifier(k=k, metric=metric, weights=weights).fit(X, y)
                    got_labels = model.predict(queries)
                    got_scores = model.predict_scores(queries)
                    for qi in range(len(queries)):
                        order = sorted(range(200), key=lambda t: (distances[qi, t], t))[:k]
                        chosen_d = distances[qi, order]
                        votes = {c: 0.0 for c in classes}
                        if weights == "uniform":
                            for t in order:
                                votes[y[t]] += 1.0 / k
                        elif np.any(chosen_d == 0.0):
                            zero = [t for t, d in zip(order, chosen_d) if d == 0.0]
                            for t in zero:
                                votes[y[t]] += 1.0 / len(zero)
                        else:
                            total = np.sum(1.0 / chosen_d)
                            for t, d in zip(order, chosen_d):
                                votes[y[t]] += (1.0 / d) / total
                        ordered = np.array([votes[c] for c in classes])
                        assert got_labels[qi] == classes[int(np.argmax(ordered))], (
                            metric, weights, k, qi,
                        )
                        np.testing.assert_allclose(got_scores[qi], ordered, atol=1e-9)


def test_c07_svm_optimality_on_separable_data():
    with criterion(7, "SMO: KKT within tol, sum(a*y) <= 1e-6, training accuracy 1.0, dual monotone, < 30 s"):
        started = time.perf_counter()
        for seed in range(4):
            rng = np.random.default_rng(200 + seed)
            n = 25
            a = rng.normal(0.0, 0.7, (n, 2))
            b = rng.normal(0.0, 0.7, (n, 2)) + rng.uniform(5.5, 7.5, 2)
            X = np.vstack([a, b])
            y = np.concatenate([np.ones(n), -np.ones(n)])
            model = smo_train_binary(X, y, C=10.0, gamma=0.1, tol=1e-3, max_passes=10, seed=seed)
            assert np.max(kkt_violations(model, X, y)) <= 1e-3
            # dual_coef = a*y: its sum is sum(a*y), its sign must be the row's label
            assert abs(np.sum(model.dual_coef)) <= 1e-6
            assert np.array_equal(np.sign(model.dual_coef), y[model.support_indices])
            assert np.all(np.abs(model.dual_coef) <= 10.0 + 1e-12)
            assert np.all(np.sign(model.decision_function(X)) == y)
            history = np.asarray(model.objective_history)
            assert np.all(np.diff(history) >= -1e-9)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"SVM criterion took {elapsed:.1f}s"


def _central_diff(loss, params, step=1e-5):
    grads = [np.zeros_like(p) for p in params]
    for param, grad in zip(params, grads):
        flat, grad_flat = param.ravel(), grad.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = loss()
            flat[i] = keep - step
            down = loss()
            flat[i] = keep
            grad_flat[i] = (up - down) / (2 * step)
    return grads


def test_c08_gradient_checks():
    with criterion(8, "analytic gradients match central differences (logreg 1e-6, 4-layer net 1e-4)"):
        rng = np.random.default_rng(108)

        # softmax regression over every weight
        X = rng.standard_normal((10, 4))
        y_index = np.array([0, 1, 2] * 3 + [0])
        X_bias = np.hstack([X, np.ones((10, 1))])
        onehot = np.eye(3)[y_index]
        weights = rng.standard_normal((5, 3)) * 0.4
        _, analytic = _loss_and_grad(weights, X_bias, onehot)
        (numeric,) = _central_diff(lambda: _loss_and_grad(weights, X_bias, onehot)[0], [weights])
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        assert np.max(rel) < 1e-6

        # four-hidden-layer net, five units each, every weight and bias
        Xn = rng.standard_normal((6, 7))
        yn = np.array([0, 1, 2, 0, 1, 2])
        onehot_n = np.eye(3)[yn]
        net = MlpClassifier(hidden=(5, 5, 5, 5), epochs=0, seed=4).fit(
            Xn, np.array(list("abc"))[yn]
        )
        weights_n, biases_n = net.weights_, net.biases_
        _, grad_w, grad_b = loss_and_grads(weights_n, biases_n, Xn, onehot_n)
        num_params = _central_diff(
            lambda: loss_and_grads(weights_n, biases_n, Xn, onehot_n)[0],
            weights_n + biases_n,
        )
        num_w, num_b = num_params[: len(weights_n)], num_params[len(weights_n):]
        for got, want in list(zip(grad_w, num_w)) + list(zip(grad_b, num_b)):
            rel = np.abs(got - want) / np.maximum(np.abs(got) + np.abs(want), 1e-8)
            assert np.max(rel) < 1e-4


SVM_GRID = {"C": [1, 10, 100], "gamma": [0.001, 0.01, 0.1]}


def test_c09_end_to_end_grid_tuned_svm(corpus, feature_store):
    with criterion(9, "synthetic corpus, tuned RBF-SVM: validation accuracy >= 0.90, winner = oracle, < 10 min"):
        started = time.perf_counter()
        config = ExperimentConfig(
            family="svm",
            grid=SVM_GRID,
            scaler="zscore",
            split_level="file",
            val_fraction=0.2,
            seed=0,
        )
        report = run_on_features(feature_store, config)
        assert report.validation_accuracy >= 0.90, report.validation_accuracy

        # independent exhaustive re-evaluation on the identical split/scaling
        from raga_moodkit.catalog import FeatureScaler
        from raga_moodkit.experiments import split_table

        train_idx, val_idx = split_table(feature_store, "file", 0.2, seed=0)
        scaler = FeatureScaler("zscore").fit(feature_store.X[train_idx])
        X_train = scaler.transform(feature_store.X[train_idx])
        X_val = scaler.transform(feature_store.X[val_idx])
        y_train = feature_store.labels[train_idx]
        y_val = feature_store.labels[val_idx]
        best_params, best_accuracy = None, -1.0
        for point in grid_points(SVM_GRID):
            model = make_classifier("svm", **point)
            model.fit(X_train, y_train)
            point_accuracy = float(np.mean(model.predict(X_val) == y_val))
            if point_accuracy > best_accuracy:
                best_params, best_accuracy = point, point_accuracy
        assert {k: report.params[k] for k in SVM_GRID} == best_params
        assert report.validation_accuracy == pytest.approx(best_accuracy)

        elapsed = (corpus.extraction_seconds or 0.0) + (time.perf_counter() - started)
        assert elapsed < 600.0, f"end-to-end took {elapsed:.0f}s"
        print(
            f"    (validation accuracy {report.validation_accuracy:.3f}, "
            f"winner {best_params}, total {elapsed:.0f}s incl. extraction)"
        )


def test_c10_two_segment_training_never_hurts(feature_store):
    with criterion(10, "two-segment run scores at least as well as the single-segment run"):
        single_rows = [
            i for i, sid in enumerate(feature_store.segment_ids) if sid.endswith(":0")
        ]
        single = FeatureTable(
            segment_ids=[feature_store.segment_ids[i] for i in single_rows],
            labels=feature_store.labels[single_rows],
            X=feature_store.X[single_rows],
            mfcc=feature_store.mfcc,
            plan=SegmentPlan(feature_store.plan.cuts[:1]),
        )
        params = {"C": 10.0, "gamma": 0.1}

        def run(table):
            config = ExperimentConfig(
                family="svm", params=params,
                scaler="zscore", split_level="file", val_fraction=0.2, seed=0,
            )
            return run_on_features(table, config)

        report_single = run(single)
        report_bi = run(feature_store)
        assert len(feature_store) == 2 * len(single)
        assert report_bi.validation_accuracy >= report_single.validation_accuracy
        print(
            f"    (single {report_single.validation_accuracy:.3f} "
            f"-> bi-sampled {report_bi.validation_accuracy:.3f})"
        )


def _policy_report(family, params, validation_accuracy):
    return ExperimentReport(
        config={"plan": [[0.0, 60.0], [20.0, 60.0]], "scaler": "zscore"},
        family=family,
        params=params,
        train_accuracy=1.0,
        validation_accuracy=validation_accuracy,
        classes=list(RASAS),
        confusion_matrix=[[0] * 6] * 6,
        per_class={},
        n_train_rows=0,
        n_val_rows=0,
    )


def test_c11_final_model_policy():
    with criterion(11, "single-neighbour 0.84 loses to the 0.77 SVM under the robustness rule"):
        knn = _policy_report("knn", {"k": 1, "metric": "manhattan"}, 0.84)
        svm = _policy_report("svm", {"C": 10, "gamma": 0.1}, 0.77)
        assert select_final_model([knn, svm]) is svm
        assert select_final_model([svm, knn]) is svm
        with pytest.raises(NoEligibleModel):
            select_final_model([knn])


def test_c12_recommender_properties_and_oracle():
    with criterion(12, "playlist extremal/no-duplicate/length rules and greedy oracle on 100 libraries"):
        rng = np.random.default_rng(112)
        for trial in range(100):
            n_songs = int(rng.integers(1, 30))
            scores = rng.dirichlet(np.ones(6), size=n_songs)
            ids = [f"s{trial:03d}_{i:03d}" for i in range(n_songs)]
            library = ScoredLibrary(song_ids=ids, scores=scores)
            current, aspired = rng.choice(RASAS, 2)
            length = int(rng.integers(1, 13))
            playlist = recommend_transition(library, current, aspired, length)
            got = playlist.song_ids()

            assert len(got) == min(length, n_songs)
            assert len(set(got)) == len(got)
            if length > 1:
                first = int(np.argmax(library.column(current)))
                assert got[0] == ids[first]
                picked_before = set(got[:-1])
                candidates = [i for i in range(n_songs) if ids[i] not in picked_before]
                aspired_scores = library.column(aspired)
                best_last = max(candidates, key=lambda i: (aspired_scores[i], -i))
                # unique maxima in random dirichlet draws: direct comparison
                assert aspired_scores[ids.index(got[-1])] == pytest.approx(
                    aspired_scores[best_last]
                )

            if length <= 8:
                weights = [1.0] if length == 1 else [i / (length - 1) for i in range(length)]
                cur, asp = library.column(current), library.column(aspired)
                remaining = list(range(n_songs))
                expected = []
                for w in weights:
                    if not remaining:
                        break
                    best = min(remaining, key=lambda i: (-(1 - w) * cur[i] - w * asp[i], ids[i]))
                    expected.append(ids[best])
                    remaining.remove(best)
                assert got == expected


def test_c13_cli_artifacts_are_byte_identical(small_corpus, tmp_path):
    with criterion(13, "extract, train and tune rerun with identical seeds reproduce identical bytes"):
        store = tmp_path / "features.csv"
        meta = tmp_path / "features.csv.meta.json"

        def run_extract():
            assert main(
                ["extract", "--manifest", str(small_corpus.manifest_path), "--out", str(store)]
            ) == 0
            return store.read_bytes(), meta.read_bytes()

        first_store = run_extract()
        second_store = run_extract()
        assert first_store == second_store

        model = tmp_path / "model.json"

        def run_train():
            assert main(
                [
                    "train", "--features", str(store), "--out", str(model),
                    "--family", "svm", "--params", "C=10", "gamma=0.1", "--seed", "3",
                ]
            ) == 0
            return model.read_bytes()

        assert run_train() == run_train()

        tuned = tmp_path / "tuned.json"
        report = tmp_path / "grid.json"

        def run_tune():
            assert main(
                [
                    "tune", "--features", str(store), "--out", str(tuned),
                    "--family", "knn", "--grid", "k=3,5", "--report-out", str(report),
                    "--seed", "3",
                ]
            ) == 0
            return tuned.read_bytes(), report.read_bytes()

        assert run_tune() == run_tune()
