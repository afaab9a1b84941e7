"""Shared fixtures.

Two synthetic corpora are built once per session:

* ``small_corpus`` / ``small_store`` — 6 classes x 5 files x 21 s, cheap
  enough for CLI round-trips and training-dynamics tests.
* ``corpus`` / ``feature_store`` — the full 6 x 20 x 90 s harness corpus
  used by the end-to-end acceptance criteria (extraction takes minutes).
"""
import time

import pytest

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
        SyntheticSpec(files_per_class=5, duration_s=21.0, seed=7), out
    )
    return CorpusHandle(manifest, load_manifest(manifest))


@pytest.fixture(scope="session")
def small_store(small_corpus):
    table, _ = extract_features(small_corpus.records, base_dir=small_corpus.base_dir)
    return table


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest = generate_corpus(
        SyntheticSpec(files_per_class=20, duration_s=90.0, seed=0), out
    )
    return CorpusHandle(manifest, load_manifest(manifest))


@pytest.fixture(scope="session")
def feature_store(corpus):
    started = time.perf_counter()
    table, _ = extract_features(corpus.records, base_dir=corpus.base_dir)
    corpus.extraction_seconds = time.perf_counter() - started
    return table
