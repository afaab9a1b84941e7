"""Output checks computed apart from the program.

Nothing here calls the toolkit: WAV files are decoded with the standard
library's ``wave``, MFCCs are rebuilt from ``np.fft.rfft``, the mel formula
and a cosine basis, stores and bundles are parsed from their CSV/JSON text,
and playlists are rebuilt by a separate greedy scan. Every check returns a
list of problems; an empty list means the outputs hold.
"""
from __future__ import annotations

import base64
import csv
import math
import wave
from pathlib import Path

import numpy as np

#: Agreement asked of native-rate store rows with the reference MFCC. The two
#: agree to about 1e-13 today; the slack admits a different FFT or summation order.
REFERENCE_RTOL = 1e-6
SCORE_SUM_TOL = 1e-9
MIN_CLASSIFY_ACCURACY = 0.9
MIN_VALIDATION_ACCURACY = 0.9


# --- decoding and features ---------------------------------------------------------

def read_pcm16(path) -> tuple[np.ndarray, int]:
    """Mono PCM16 samples scaled to [-1, 1), and the sample rate."""
    with wave.open(str(path), "rb") as handle:
        if handle.getsampwidth() != 2 or handle.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono 16-bit PCM")
        rate = handle.getframerate()
        raw = handle.readframes(handle.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate


def cut(signal: np.ndarray, rate: int, start_s: float, duration_s: float) -> np.ndarray:
    start = int(round(start_s * rate))
    return signal[start: start + int(round(duration_s * rate))]


def reference_mfcc(signal, rate: int, fft_size: int = 2048, hop: int = 512,
                   n_filters: int = 40, n_coeffs: int = 40, log_floor: float = 1e-10) -> np.ndarray:
    """Mean MFCC vector of a mono signal, from the documented definitions.

    Frames start every ``hop`` samples and the tail is zero-padded
    (ceil(len/hop) frames); the window is the symmetric Hann window; filters
    are triangles between boundaries spaced evenly on 1125*ln(1 + f/700)
    from 0 Hz to Nyquist, in real-valued FFT-bin units; coefficients are the
    unscaled DCT-II of the floored log filter energies.
    """
    signal = np.asarray(signal, dtype=np.float64)
    n_frames = -(-len(signal) // hop)
    padded = np.zeros((n_frames - 1) * hop + fft_size)
    padded[: len(signal)] = signal
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(fft_size) / (fft_size - 1))

    mel_top = 1125.0 * math.log(1.0 + (rate / 2.0) / 700.0)
    mels = np.arange(n_filters + 2) * mel_top / (n_filters + 1)
    bounds = 700.0 * (np.exp(mels / 1125.0) - 1.0) * fft_size / rate
    k = np.arange(fft_size // 2 + 1)
    left, center, right = bounds[:-2, None], bounds[1:-1, None], bounds[2:, None]
    weights = np.maximum(0.0, np.minimum((k - left) / (center - left), (right - k) / (right - center)))
    basis = np.cos(np.pi * np.arange(n_coeffs)[:, None] * (np.arange(n_filters) + 0.5) / n_filters)

    total = np.zeros(n_coeffs)
    for first in range(0, n_frames, 512):
        starts = hop * np.arange(first, min(first + 512, n_frames))
        frames = padded[starts[:, None] + np.arange(fft_size)] * window
        power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
        total += (np.log(np.maximum(power @ weights.T, log_floor)) @ basis.T).sum(axis=0)
    return total / n_frames


# --- feature store ----------------------------------------------------------------

def read_store_rows(path) -> dict:
    """``segment_id -> (rasa, values as text)`` from a store CSV."""
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header[:2] != ["segment_id", "rasa"]:
            raise ValueError(f"{path}: unexpected header {header[:3]}")
        return {line[0]: (line[1], tuple(line[2:])) for line in reader}


def as_vector(values) -> np.ndarray:
    return np.array([float(v) for v in values])


def check_reference_rows(rows: dict, references: dict) -> list[str]:
    """Store rows against reference vectors keyed by segment id."""
    problems = []
    for seg, reference in references.items():
        if seg not in rows:
            problems.append(f"{seg}: row missing from the store")
            continue
        row = as_vector(rows[seg][1])
        error = float(np.max(np.abs(row - reference)))
        if not error <= REFERENCE_RTOL * max(1.0, float(np.max(np.abs(reference)))):
            problems.append(f"{seg}: differs from the reference MFCC by {error:.3g}")
    return problems


def nearest_centroid_margins(rows: dict, centroids: dict) -> tuple[list[str], dict]:
    """Each row must lie nearest the centroid of its own class.

    Returns the problems and, per row, the margin: distance to the nearest
    other centroid over distance to its own.
    """
    problems, margins = [], {}
    for seg, (rasa, values) in rows.items():
        row = as_vector(values)
        distances = {name: float(np.linalg.norm(row - c)) for name, c in centroids.items()}
        own = distances[rasa]
        other = min(d for name, d in distances.items() if name != rasa)
        margins[seg] = other / own if own > 0 else math.inf
        if not own < other:
            nearest = min(distances, key=distances.get)
            problems.append(f"{seg}: labelled {rasa} but nearest the {nearest} centroid")
    return problems, margins


def check_twin_rows(rows: dict, file_id: str, twin_id: str) -> list[str]:
    """Once an extensible-header file decodes, its rows equal its twin's."""
    problems = []
    for seg, (_rasa, values) in rows.items():
        song, cut_index = seg.rsplit(":", 1)
        if song != file_id:
            continue
        twin = rows.get(f"{twin_id}:{cut_index}")
        if twin is None or twin[1] != values:
            problems.append(f"{seg}: differs from its plain twin {twin_id}:{cut_index}")
    return problems


def check_correlation(path, rows: dict) -> list[str]:
    """The correlation CSV against np.corrcoef of the store rows."""
    with Path(path).open(newline="", encoding="utf-8") as handle:
        lines = list(csv.reader(handle))[1:]
    matrix = np.array([[float(v) for v in line[1:]] for line in lines])
    expected = np.corrcoef(np.vstack([as_vector(v) for _r, v in rows.values()]), rowvar=False)
    if matrix.shape != expected.shape:
        return [f"correlation matrix is {matrix.shape}, expected {expected.shape}"]
    error = float(np.max(np.abs(matrix - expected)))
    return [] if error <= 1e-9 else [f"correlation matrix differs from np.corrcoef by {error:.3g}"]


# --- SVM bundle -------------------------------------------------------------------

def _decode(payload: dict) -> np.ndarray:
    raw = base64.b64decode(payload["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(payload["shape"])


def check_svm_bundle(bundle: dict) -> tuple[list[str], float]:
    """Dual feasibility and optimality of every pair machine, from the bundle JSON alone.

    For a support vector with multiplier a = |coef| and label y = sign(coef),
    the margin m = y * f(x) must satisfy |m - 1| <= tol when 0 < a < C,
    m <= 1 + tol when a = C and m >= 1 - tol when a is zero (to 1e-12, as
    the trainer keeps every a > 0). Each pair's coefficients sum to 0 and obey
    |coef| <= C. Returns the problems and the worst slack.
    """
    params = bundle["model"]["params"]
    C, gamma, tol = float(params["C"]), float(params["gamma"]), float(params["tol"])
    problems, worst = [], 0.0
    for pair in params["pairs"]:
        name = "pair {}-{}".format(*pair["classes"])
        vectors = _decode(pair["support_vectors"])
        coef = _decode(pair["dual_coef"])
        scale = max(1.0, float(np.sum(np.abs(coef))))
        if abs(float(np.sum(coef))) > 1e-9 * scale:
            problems.append(f"{name}: dual coefficients sum to {float(np.sum(coef)):.3g}, not 0")
        if np.any(np.abs(coef) > C * (1 + 1e-12)):
            problems.append(f"{name}: a dual coefficient exceeds C={C:g}")
        if len(coef) == 0:
            continue
        sq = np.sum((vectors[:, None, :] - vectors[None, :, :]) ** 2, axis=2)
        margins = np.sign(coef) * (np.exp(-gamma * sq) @ coef + float(pair["bias"]))
        alphas = np.abs(coef)
        slack = np.abs(margins - 1.0)
        slack[alphas <= 1e-12] = np.maximum(0.0, 1.0 - margins[alphas <= 1e-12])
        slack[alphas >= C - 1e-12] = np.maximum(0.0, margins[alphas >= C - 1e-12] - 1.0)
        pair_worst = float(slack.max())
        worst = max(worst, pair_worst)
        if pair_worst > tol:
            problems.append(f"{name}: KKT slack {pair_worst:.3g} exceeds tol={tol:g}")
    return problems, worst


# --- serving ----------------------------------------------------------------------

def check_classify(results: list, clip_classes: dict) -> tuple[list[str], float]:
    """``results`` holds (clip index, classify JSON); scores must sum to 1 and
    the prediction must be their argmax and equal the clip's class for at
    least MIN_CLASSIFY_ACCURACY of the clips. Returns problems and accuracy."""
    problems, predicted = [], {}
    for clip, payload in results:
        scores = payload["scores"]
        if abs(sum(scores.values()) - 1.0) > SCORE_SUM_TOL:
            problems.append(f"clip {clip}: scores sum to {sum(scores.values())!r}")
        if payload["predicted"] != max(scores, key=scores.get):
            problems.append(f"clip {clip}: prediction is not the top score")
        if predicted.setdefault(clip, payload["predicted"]) != payload["predicted"]:
            problems.append(f"clip {clip}: prediction changed between requests")
    if not predicted:
        return problems + ["no classify request succeeded"], 0.0
    accuracy = sum(predicted[c] == clip_classes[c] for c in predicted) / len(predicted)
    if accuracy < MIN_CLASSIFY_ACCURACY:
        problems.append(f"classify accuracy {accuracy:.3f} < {MIN_CLASSIFY_ACCURACY}")
    return problems, accuracy


def greedy_playlist(song_ids, current: np.ndarray, aspired: np.ndarray, length: int) -> list:
    """Slot i blends the moods with weight i/(L-1); each slot takes the best
    remaining song, ties going to the smallest id."""
    weights = [1.0] if length == 1 else [i / (length - 1) for i in range(length)]
    taken = np.zeros(len(song_ids), dtype=bool)
    slots = []
    for weight in weights[: len(song_ids)]:
        blended = (1.0 - weight) * current + weight * aspired
        open_scores = np.where(taken, -np.inf, blended)
        ties = np.flatnonzero(open_scores == open_scores.max())
        best = min(ties, key=lambda i: song_ids[i])
        taken[best] = True
        slots.append((song_ids[best], weight, float(blended[best])))
    return slots


def check_playlist(slots: list, expected: list) -> list[str]:
    ids = [s[0] for s in slots]
    problems = []
    if len(set(ids)) != len(ids):
        problems.append("playlist repeats a song")
    if slots != expected:
        problems.append(f"playlist {ids[:3]}... differs from the greedy oracle {[s[0] for s in expected][:3]}...")
    return problems
