"""Shared fixtures.

Two synthetic corpora are built once per session, each rendered and
extracted by two worker processes (the outputs do not depend on the count):

* ``small_corpus`` / ``small_store`` — 6 classes x 5 files x 21 s, cheap
  enough for CLI round-trips and training-dynamics tests.
* ``corpus`` / ``feature_store`` — the full 6 x 20 x 90 s harness corpus
  used by the end-to-end acceptance criteria (extraction takes minutes).
"""
import concurrent.futures
import time

import pytest

from raga_moodkit import experiments
from raga_moodkit.catalog import load_manifest
from raga_moodkit.experiments import extract_features
from raga_moodkit.synth import SyntheticSpec, generate_corpus


class CorpusHandle:
    def __init__(self, manifest_path, records, extraction_seconds=None):
        self.manifest_path = manifest_path
        self.base_dir = manifest_path.parent
        self.records = records
        self.extraction_seconds = extraction_seconds


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_corpus")
    manifest = generate_corpus(
        SyntheticSpec(files_per_class=5, duration_s=21.0, seed=7), out, jobs=2
    )
    return CorpusHandle(manifest, load_manifest(manifest))


@pytest.fixture(scope="session")
def small_store(small_corpus):
    table, _ = extract_features(small_corpus.records, base_dir=small_corpus.base_dir, jobs=2)
    return table


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest = generate_corpus(
        SyntheticSpec(files_per_class=20, duration_s=90.0, seed=0), out, jobs=2
    )
    return CorpusHandle(manifest, load_manifest(manifest))


@pytest.fixture(scope="session")
def feature_store(corpus):
    started = time.perf_counter()
    table, _ = extract_features(corpus.records, base_dir=corpus.base_dir, jobs=2)
    corpus.extraction_seconds = time.perf_counter() - started
    return table


@pytest.fixture
def inline_pool(monkeypatch):
    """Swap the worker pool for a fake that runs each call inline; returns the
    list of pool sizes asked for. A process pool starts all its workers at
    the first submit, so the size asked for is what a real run would start."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, call):
            future = concurrent.futures.Future()
            future.set_result(call())
            return future

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    return sizes
