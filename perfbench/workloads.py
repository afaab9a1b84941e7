"""The three workloads: ``ingest``, ``tune`` and ``serve``.

Each workload makes its inputs from the seed in ``setup``, then runs whole
rounds of identical operations through the toolkit. A round returns the
wall time of the program calls that succeeded, the operations it attempted
and lost, and the units of work it completed (``Round.units``), which
``ms_per_unit`` turns into the run's figure. A failed operation adds no
unit, so failing fast never reads as a speed-up. ``check`` compares the
outputs with computations made apart from the program (see ``checks``).
"""
from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
import tracing
from raga_moodkit import cli, recommender
from raga_moodkit.bundle import ModelBundle
from raga_moodkit.store import FeatureTable, read_store, sidecar_path


class SetupError(RuntimeError):
    """Set-up could not produce the workload's inputs."""


@dataclass
class Round:
    wall_s: float
    attempted: int
    failed: int
    units: float
    latencies: dict = field(default_factory=dict)  # request kind -> [seconds]


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """``raga-moodkit`` in this process; returns (exit code, stdout, stderr, wall s).

    An exception escaping ``cli.main`` is reported as exit code -1 with its
    traceback, so one broken operation does not end the run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main([str(a) for a in argv])
        except Exception:  # noqa: BLE001 - counted as a failed operation
            code = -1
            traceback.print_exc()
        wall = time.perf_counter() - started
    return code, out.getvalue(), err.getvalue(), wall


def _trailing_json(text: str) -> dict:
    """The JSON object a command prints after its table lines."""
    return json.loads(text[text.index("\n{\n") + 1:])


def short_cut_plan(duration_s: float, cut_s: float) -> str:
    return ",".join(f"{k * cut_s:g}:{cut_s:g}" for k in range(int(round(duration_s / cut_s))))


def extract_store(files, out_dir: Path, plan: str) -> Path:
    manifest = inputs.write_corpus_manifest(out_dir, files)
    store = out_dir / "features.csv"
    code, _out, err, _wall = run_cli(["extract", "--manifest", manifest, "--out", store,
                                      "--plan", plan, "--jobs", "1"])
    if code != 0:
        raise SetupError(f"extract failed with exit code {code}: {err.strip()[-400:]}")
    return store


class Workload:
    name = ""
    #: Rounds in each pass of a traced run; fixed so that counts repeat exactly.
    trace_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer: tracing.Tracer | None = None

    def setup(self, workdir: Path):
        raise NotImplementedError

    def run_round(self, state, index: int) -> Round:
        raise NotImplementedError

    def check(self, state) -> list[str]:
        raise NotImplementedError

    def ms_per_unit(self, rounds: list[Round]) -> float | None:
        """Median over rounds of wall ms per unit; None when no round completed a unit."""
        per_round = [1e3 * r.wall_s / r.units for r in rounds if r.units]
        return statistics.median(per_round) if per_round else None

    def summary(self, rounds: list[Round]) -> dict:
        """Workload-specific figures printed next to the metrics."""
        return {}


# --- ingest ----------------------------------------------------------------------

@dataclass
class IngestState:
    workdir: Path
    files: list
    manifest: Path
    outputs: list = field(default_factory=list)  # per round: (store bytes, correlation bytes)
    failures: list = field(default_factory=list)  # per round: failed file ids


class Ingest(Workload):
    """``extract --plan bisample --correlation-out`` over mixed-format renders.

    A round extracts five 80 s files: 22.05 kHz mono PCM16, 44.1 kHz stereo
    PCM24 and 48 kHz stereo float32 renders of seeded classes, and a fixed
    24-bit stereo file under a WAVE_FORMAT_EXTENSIBLE header next to its
    plain-PCM24 twin. A unit is one second of source audio extracted.
    """

    name = "ingest"
    trace_rounds = 2
    margins: dict = {}

    def setup(self, workdir: Path) -> IngestState:
        files = inputs.ingest_corpus(workdir, self.seed)
        return IngestState(workdir, files, inputs.write_corpus_manifest(workdir, files))

    def run_round(self, state: IngestState, index: int) -> Round:
        store = state.workdir / "features.csv"
        correlation = state.workdir / "correlation.csv"
        code, _out, _err, wall = run_cli(
            ["extract", "--manifest", state.manifest, "--out", store, "--plan", "bisample",
             "--correlation-out", correlation, "--jobs", "1"])
        if code == 0:
            failed = json.loads(sidecar_path(store).read_text(encoding="utf-8"))["failures"]
            state.outputs.append((store.read_bytes(), correlation.read_bytes()))
        else:
            failed = [f.id for f in state.files]
        state.failures.append(sorted(failed))
        units = sum(f.duration_s for f in state.files if f.id not in failed)
        return Round(wall, len(state.files), len(failed), units)

    def check(self, state: IngestState) -> list[str]:
        if not state.outputs:
            return ["no extract round succeeded"]
        problems = []
        if any(out != state.outputs[0] for out in state.outputs[1:]):
            problems.append("extract outputs differ between rounds")
        store = state.workdir / "check-features.csv"
        store.write_bytes(state.outputs[0][0])
        correlation = state.workdir / "check-correlation.csv"
        correlation.write_bytes(state.outputs[0][1])
        rows = checks.read_store_rows(store)
        failed = set(state.failures[0])
        for f in state.files:
            segs = [s for s in rows if s.rsplit(":", 1)[0] == f.id]
            if f.id not in failed and len(segs) != 2:
                problems.append(f"{f.id}: {len(segs)} rows, expected 2")
            if any(rows[s][0] != f.rasa.value for s in segs):
                problems.append(f"{f.id}: rows carry the wrong rasa")

        references = {}
        for f in state.files:
            if f.rate == inputs.NATIVE_RATE and f.channels == 1:
                signal, rate = checks.read_pcm16(f.path)
                for cut_index, (start, duration) in enumerate(((0.0, 60.0), (20.0, 60.0))):
                    references[f"{f.id}:{cut_index}"] = checks.reference_mfcc(
                        checks.cut(signal, rate, start, duration), rate)
        problems += checks.check_reference_rows(rows, references)

        high_rate = {s: rows[s] for f in state.files if f.rate != inputs.NATIVE_RATE
                     for s in rows if s.rsplit(":", 1)[0] == f.id}
        centroid_problems, self.margins = checks.nearest_centroid_margins(
            high_rate, class_centroids(self.seed))
        problems += centroid_problems
        for f in state.files:
            if f.twin_of:
                problems += checks.check_twin_rows(rows, f.id, f.twin_of)
        problems += checks.check_correlation(correlation, rows)
        return problems

    def summary(self, rounds: list[Round]) -> dict:
        rate = statistics.median(r.units / r.wall_s for r in rounds)
        return {"ingest_audio_s_per_s": (rate, "audio_s/s"),
                "min_centroid_margin": (min(self.margins.values(), default=0.0), "x")}


def class_centroids(seed: int, duration_s: float = 10.0) -> dict:
    """Reference MFCC of one native-rate render per class, over the whole render."""
    rng = np.random.default_rng([seed, 1])
    return {
        rasa.value: checks.reference_mfcc(
            inputs.render(rasa, duration_s, inputs.NATIVE_RATE, inputs.child_rng(rng)),
            inputs.NATIVE_RATE)
        for rasa in inputs.CLASSES
    }


# --- tune ------------------------------------------------------------------------

TUNE_STORES = 3
TUNE_FILES_PER_CLASS = 4
SHORT_FILE_S = 3.0
SHORT_CUT_S = 0.5
# gamma=0.001 is left out: on about one store in a hundred the SMO trainer
# runs out of its sweep budget there and returns a model outside its own tol,
# so the tune check would fail on some seeds only.
GRID = ["C=1,10,100", "gamma=0.01,0.1"]
GRID_POINTS = 6


@dataclass
class TuneState:
    workdir: Path
    stores: list
    bundles: list = field(default_factory=list)  # per round: [bundle bytes per store]
    results: list = field(default_factory=list)  # per round: [tune JSON per store]
    errors: list = field(default_factory=list)  # failed commands and grid points


class Tune(Workload):
    """``tune --family svm`` with a 3x2 grid on three seeded stores of 144 rows.

    Set-up renders 6 classes x 4 files x 3 s per store and extracts six
    0.5 s cuts per file. Three independent stores per round average the
    data-dependent SMO work. A unit is one grid point that trained and
    validated; the time of a tune command that failed is left out.
    """

    name = "tune"
    trace_rounds = 1
    worst_slack = float("nan")

    def setup(self, workdir: Path) -> TuneState:
        rng = np.random.default_rng(self.seed)
        stores = []
        for index in range(TUNE_STORES):
            out = workdir / f"store{index}"
            files = inputs.class_corpus(out, rng, TUNE_FILES_PER_CLASS, SHORT_FILE_S)
            stores.append(extract_store(files, out, short_cut_plan(SHORT_FILE_S, SHORT_CUT_S)))
        return TuneState(workdir, stores)

    def run_round(self, state: TuneState, index: int) -> Round:
        wall, failed, bundles, results, latencies = 0.0, 0, [], [], []
        for number, store in enumerate(state.stores):
            model = store.with_name("model.json")
            report = store.with_name("report.json")
            code, out, err, seconds = run_cli(
                ["tune", "--features", store, "--out", model, "--family", "svm",
                 "--grid", *GRID, "--report-out", report])
            if code != 0:
                failed += GRID_POINTS
                state.errors.append(f"store {number}: tune exited {code}: {err.strip()[-200:]}")
                continue
            wall += seconds
            latencies.append(seconds)
            for row in json.loads(report.read_text(encoding="utf-8"))["grid_rows"]:
                if row["error"] is not None:
                    failed += 1
                    state.errors.append(f"store {number}: grid point {row['params']}: {row['error']}")
            bundles.append(model.read_bytes())
            results.append(_trailing_json(out))
        state.bundles.append(bundles)
        state.results.append(results)
        attempted = GRID_POINTS * len(state.stores)
        return Round(wall, attempted, failed, attempted - failed, {"tune": latencies})

    def check(self, state: TuneState) -> list[str]:
        problems = sorted(set(state.errors))
        if not state.bundles or len(state.bundles[0]) != len(state.stores):
            return problems
        if any(b != state.bundles[0] for b in state.bundles[1:]):
            problems.append("tuned bundles differ between rounds")
        self.worst_slack = 0.0
        for index, (raw, result) in enumerate(zip(state.bundles[0], state.results[0])):
            if result["validation_accuracy"] < checks.MIN_VALIDATION_ACCURACY:
                problems.append(f"store {index}: validation accuracy "
                                f"{result['validation_accuracy']:.3f} < {checks.MIN_VALIDATION_ACCURACY}")
            bundle_problems, worst = checks.check_svm_bundle(json.loads(raw))
            problems += [f"store {index}: {p}" for p in bundle_problems]
            self.worst_slack = max(self.worst_slack, worst)
        return problems

    def summary(self, rounds: list[Round]) -> dict:
        tunes = [s for r in rounds for s in r.latencies["tune"]]
        figures = {"worst_kkt_slack": (self.worst_slack, "1")}
        if tunes:
            figures["tune_s"] = (statistics.median(tunes), "s")
        return figures


# --- serve -----------------------------------------------------------------------

SERVE_TRAIN_PARAMS = ["C=10", "gamma=0.01"]
SERVE_CLIPS_PER_CLASS = 2
LIBRARY_SONGS = 10_000
LIBRARY_JITTER = 0.1  # per-feature standard deviations
PLAYLIST_LENGTHS = (5, 10, 15, 20)
CLASSIFY_PER_ROUND = 4


@dataclass
class ServeState:
    workdir: Path
    bundle_path: Path
    clips: list
    library: object
    classified: list = field(default_factory=list)  # (clip index, classify JSON)
    playlists: list = field(default_factory=list)  # ((from, to, length), slots)


class Serve(Workload):
    """One closed-loop client mixing ``classify`` requests on 3 s native-rate
    clips with playlist requests over a scored 10,000-song library.

    Each round sends four of each kind in a seeded order; playlist lengths
    are 5, 10, 15 and 20 once per round. That mix is a choice, not measured
    traffic, so ``ms_per_unit`` does not depend on it: a unit is one request
    of each kind, the median classify plus the mean over the four lengths of
    the median playlist. A failed request adds no latency sample.
    """

    name = "serve"
    trace_rounds = 20
    accuracy = 0.0

    def setup(self, workdir: Path) -> ServeState:
        rng = np.random.default_rng(self.seed)
        train_dir = workdir / "train"
        files = inputs.class_corpus(train_dir, rng, TUNE_FILES_PER_CLASS, SHORT_FILE_S)
        store = extract_store(files, train_dir, short_cut_plan(SHORT_FILE_S, SHORT_CUT_S))
        bundle_path = workdir / "model.json"
        code, _out, err, _wall = run_cli(["train", "--features", store, "--out", bundle_path,
                                          "--family", "svm", "--params", *SERVE_TRAIN_PARAMS])
        if code != 0:
            raise SetupError(f"train failed with exit code {code}: {err.strip()[-400:]}")
        clips = inputs.class_corpus(workdir / "clips", rng, SERVE_CLIPS_PER_CLASS, SHORT_FILE_S,
                                    prefix="clip_")

        table = read_store(store)
        picks = rng.integers(len(table), size=LIBRARY_SONGS)
        noise = rng.standard_normal((LIBRARY_SONGS, table.X.shape[1])) * table.X.std(axis=0)
        library_rows = FeatureTable(
            segment_ids=[f"song_{i:05d}:0" for i in range(LIBRARY_SONGS)],
            labels=table.labels[picks],
            X=table.X[picks] + LIBRARY_JITTER * noise,
            mfcc=table.mfcc,
            plan=table.plan,
        )
        library = recommender.score_library(ModelBundle.load(bundle_path), library_rows)
        return ServeState(workdir, bundle_path, clips, library)

    def _schedule(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        kinds = rng.permutation(["classify"] * CLASSIFY_PER_ROUND + ["playlist"] * len(PLAYLIST_LENGTHS))
        lengths = iter(rng.permutation(PLAYLIST_LENGTHS))
        clips = iter(rng.permutation(len(inputs.CLASSES) * SERVE_CLIPS_PER_CLASS)[:CLASSIFY_PER_ROUND])
        for kind in kinds:
            if kind == "classify":
                yield kind, int(next(clips))
            else:
                current, aspired = rng.choice(len(inputs.CLASSES), size=2, replace=False)
                yield kind, (inputs.CLASSES[current].value, inputs.CLASSES[aspired].value,
                             int(next(lengths)))

    def run_round(self, state: ServeState, index: int) -> Round:
        latencies = {kind: [] for kind in self.kinds()}
        attempted = failed = 0
        for kind, request in self._schedule(index):
            attempted += 1
            if kind == "classify":
                clip = state.clips[request]
                span = self.tracer.span(tracing.CLASSIFY_SPAN) if self.tracer else contextlib.nullcontext()
                with span:
                    code, out, _err, seconds = run_cli(["classify", "--model", state.bundle_path,
                                                        "--wav", clip.path])
                if code != 0:
                    failed += 1
                    continue
                state.classified.append((request, json.loads(out)))
            else:
                started = time.perf_counter()
                try:
                    playlist = recommender.recommend_transition(state.library, *request)
                except Exception:  # noqa: BLE001 - counted as a failed operation
                    failed += 1
                    continue
                seconds = time.perf_counter() - started
                state.playlists.append((request, [(s.song_id, s.weight, s.blended_score)
                                                  for s in playlist.slots]))
                kind = f"playlist{request[2]}"
            latencies[kind].append(seconds)
        wall = sum(sum(v) for v in latencies.values())
        return Round(wall, attempted, failed, attempted - failed, latencies)

    @staticmethod
    def kinds() -> list[str]:
        return ["classify"] + [f"playlist{n}" for n in PLAYLIST_LENGTHS]

    def ms_per_unit(self, rounds: list[Round]) -> float | None:
        samples = {kind: [s for r in rounds for s in r.latencies[kind]] for kind in self.kinds()}
        if not all(samples.values()):
            return None
        playlist = statistics.fmean(statistics.median(samples[k]) for k in self.kinds()[1:])
        return 1e3 * (statistics.median(samples["classify"]) + playlist)

    def check(self, state: ServeState) -> list[str]:
        clip_classes = {i: clip.rasa.value for i, clip in enumerate(state.clips)}
        problems, self.accuracy = checks.check_classify(state.classified, clip_classes)
        library = state.library
        oracle = {}
        for request, slots in state.playlists:
            if request not in oracle:
                current, aspired, length = request
                oracle[request] = checks.greedy_playlist(
                    library.song_ids, library.column(current), library.column(aspired), length)
            problems += [f"playlist {request}: {p}" for p in checks.check_playlist(slots, oracle[request])]
        return problems

    def summary(self, rounds: list[Round]) -> dict:
        figures = {"classify_accuracy": (self.accuracy, "1")}
        for kind in ("classify", "playlist"):
            samples = [s * 1e3 for r in rounds for k, v in r.latencies.items()
                       if k.startswith(kind) for s in v]
            if not samples:
                continue
            figures[f"{kind}_ms_p50"] = (statistics.median(samples), "ms")
            tail = tail_percentile(len(samples))
            if tail is not None:
                value = statistics.quantiles(samples, n=100, method="inclusive")[tail - 1]
                figures[f"{kind}_ms_p{tail}"] = (value, "ms")
        return figures


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile (at most 90) with ten samples beyond it; none below 40 samples."""
    if n < 40:
        return None
    return min(90, int(100 * (n - 10) / n))


WORKLOADS = {w.name: w for w in (Ingest, Tune, Serve)}
