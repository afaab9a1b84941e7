"""Spans around the toolkit's public functions, recorded from the benchmark.

A traced run replaces each function in ``LAYERS`` by a timing wrapper at
every module attribute that holds it (and on the class for methods), so the
program's own call path runs unchanged and nested calls nest their spans.
Spans (name, start, end, parent) stay in memory; ``layer_metrics`` turns
them into per-layer self times and counts after the run.

A function that no longer exists under its listed name is reported missing:
its metrics are left out of the result instead of reading zero.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _count_read(counts, result):
    counts["audio.decoded_audio_s"] += result.duration_s


def _count_frames(counts, result):
    counts["mfcc.frames"] += result.shape[0]


def _count_smo(counts, model):
    counts["models.svm.fits"] += 1
    counts["models.svm.sweeps"] += model.n_sweeps
    counts["models.svm.accepted_updates"] += len(model.objective_history) - 1
    counts["models.svm.support_vectors"] += len(model.support_indices)


@dataclass(frozen=True)
class Layer:
    span: str           # span and metric stem
    module: str         # defining module
    attr: str           # attribute, or Class.method
    per_call_ms: bool = False  # report mean ms per call instead of total seconds
    count: Callable | None = None

    @property
    def metric(self) -> str:
        return self.span + ("_ms" if self.per_call_ms else "_s")


LAYERS = (
    Layer("audio.read_wav", "raga_moodkit.audio", "read_wav", count=_count_read),
    Layer("audio.to_mono", "raga_moodkit.audio", "to_mono"),
    Layer("audio.resample", "raga_moodkit.audio", "resample"),
    Layer("audio.bi_sample", "raga_moodkit.audio", "bi_sample"),
    Layer("mfcc.mfcc_frames", "raga_moodkit.mfcc", "mfcc_frames", count=_count_frames),
    Layer("mfcc.aggregate_features", "raga_moodkit.mfcc", "aggregate_features"),
    Layer("mfcc.feature_correlation", "raga_moodkit.mfcc", "feature_correlation"),
    Layer("store.write_store", "raga_moodkit.store", "write_store"),
    Layer("store.read_store", "raga_moodkit.store", "read_store"),
    Layer("experiments.grid_search", "raga_moodkit.experiments", "grid_search"),
    Layer("models.svm.fit", "raga_moodkit.models.svm", "RbfSvmClassifier.fit"),
    Layer("models.svm.smo_train_binary", "raga_moodkit.models.svm", "smo_train_binary",
          count=_count_smo),
    Layer("models.svm.rbf_kernel_matrix", "raga_moodkit.models.svm", "rbf_kernel_matrix"),
    Layer("models.svm.predict_scores", "raga_moodkit.models.svm", "RbfSvmClassifier.predict_scores"),
    Layer("bundle.save", "raga_moodkit.bundle", "ModelBundle.save"),
    Layer("bundle.load", "raga_moodkit.bundle", "ModelBundle.load", per_call_ms=True),
    Layer("recommender.recommend_transition", "raga_moodkit.recommender", "recommend_transition",
          per_call_ms=True),
    Layer("recommender.score_library", "raga_moodkit.recommender", "score_library"),
    Layer("synth.generate", "raga_moodkit.synth", "synth_signal"),
)

#: Counts derived from return values, with the layer whose wrapper makes them.
COUNTS = {
    "audio.decoded_audio_s": "audio.read_wav",
    "mfcc.frames": "mfcc.mfcc_frames",
    "models.svm.fits": "models.svm.smo_train_binary",
    "models.svm.sweeps": "models.svm.smo_train_binary",
    "models.svm.accepted_updates": "models.svm.smo_train_binary",
    "models.svm.support_vectors": "models.svm.smo_train_binary",
}

#: Span the benchmark opens around each classify request; its self time is
#: classify time that no layer span covers.
CLASSIFY_SPAN = "cli.classify"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, layer: Layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(layer.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if layer.count is not None:
                layer.count(self.counts, result)
            return result
        return traced

    def install(self) -> None:
        for layer in LAYERS:
            owner = importlib.import_module(layer.module)
            *owner_path, leaf = layer.attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, leaf, None) if owner is not None else None
            if raw is None:
                self.missing.add(layer.span)
                continue
            if owner_path:
                sites = [(owner, leaf)]
            else:
                sites = [
                    (module, name)
                    for module_name, module in list(sys.modules.items())
                    if module_name.split(".")[0] == "raga_moodkit"
                    for name, value in list(vars(module).items())
                    if value is raw
                ]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__))
            else:
                wrapped = self._wrap(layer, raw)
            for site, name in sites:
                setattr(site, name, wrapped)
                self._patched.append((site, name, raw))

    def uninstall(self) -> None:
        for site, name, raw in reversed(self._patched):
            setattr(site, name, raw)
        self._patched.clear()


def self_times_ns(spans: list) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, window_ns: tuple[int, int], untraced_s: float) -> dict:
    """Per-layer metrics from every recorded span, plus the trace's own cost.

    ``window_ns`` is the traced measuring pass; ``untraced_s`` is the mean
    wall time of the same rounds run without wrappers just before and just
    after it, so a steady drift of the host during the run cancels.
    ``trace.unattributed_s`` is the part of the traced pass that no layer
    span covers.
    """
    own = self_times_ns(tracer.spans)
    totals, calls = Counter(), Counter()
    covered_ns = 0
    start, end = window_ns
    for (name, span_start, _end, _parent), self_ns in zip(tracer.spans, own):
        totals[name] += self_ns
        calls[name] += 1
        if name != CLASSIFY_SPAN and start <= span_start < end:
            covered_ns += self_ns

    metrics = {}
    for layer in LAYERS:
        if layer.span in tracer.missing:
            continue
        if layer.per_call_ms:
            value = totals[layer.span] / 1e6 / calls[layer.span] if calls[layer.span] else 0.0
            metrics[layer.metric] = (value, "ms")
        else:
            metrics[layer.metric] = (totals[layer.span] / 1e9, "s")
    for name, layer_span in COUNTS.items():
        if layer_span not in tracer.missing:
            metrics[name] = (tracer.counts[name], "audio_s" if name.endswith("_s") else "count")
    if "mfcc.mfcc_frames" not in tracer.missing:
        frames = tracer.counts["mfcc.frames"]
        metrics["mfcc.us_per_frame"] = (totals["mfcc.mfcc_frames"] / 1e3 / frames if frames else 0.0, "us")
    classify_calls = calls[CLASSIFY_SPAN]
    metrics["cli.unattributed_ms"] = (
        totals[CLASSIFY_SPAN] / 1e6 / classify_calls if classify_calls else 0.0, "ms")
    traced_s = (end - start) / 1e9
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.unattributed_s"] = (traced_s - covered_ns / 1e9, "s")
    return metrics
