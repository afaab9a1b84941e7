import numpy as np
import pytest

from raga_moodkit.catalog import Rasa, load_manifest
from raga_moodkit.errors import ValidationError
from raga_moodkit.synth import DEFAULT_RECIPES, SyntheticSpec, generate_corpus, synth_signal


class TestSpec:
    def test_default_recipes_cover_six_rasas_distinctly(self):
        # every corpus is rendered from these recipes: one per rasa, and
        # pairwise distinct fundamentals so the classes stay separable
        assert set(DEFAULT_RECIPES) == set(Rasa)
        fundamentals = [r.fundamental_hz for r in DEFAULT_RECIPES.values()]
        assert len(set(fundamentals)) == 6

    def test_bad_counts(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(files_per_class=0)
        with pytest.raises(ValidationError):
            SyntheticSpec(duration_s=0.0)


class TestSignal:
    def test_amplitude_bounded_and_finite(self):
        rng = np.random.default_rng(0)
        signal = synth_signal(DEFAULT_RECIPES[Rasa.VEERA], 2.0, 22050, rng)
        assert signal.shape == (44100,)
        assert np.all(np.isfinite(signal))
        assert np.max(np.abs(signal)) <= 0.98

    def test_distinct_classes_have_distinct_spectra(self):
        rng = np.random.default_rng(1)
        a = synth_signal(DEFAULT_RECIPES[Rasa.KARUNA], 1.0, 22050, np.random.default_rng(5))
        b = synth_signal(DEFAULT_RECIPES[Rasa.VEERA], 1.0, 22050, np.random.default_rng(5))
        spec_a = np.abs(np.fft.rfft(a[:16384]))
        spec_b = np.abs(np.fft.rfft(b[:16384]))
        assert np.argmax(spec_a) != np.argmax(spec_b)


class TestCorpus:
    def test_layout_and_manifest(self, tmp_path):
        spec = SyntheticSpec(files_per_class=2, duration_s=1.0, seed=3)
        manifest = generate_corpus(spec, tmp_path / "corpus")
        records = load_manifest(manifest)
        assert len(records) == 12
        rasas = {r.rasa for r in records}
        assert rasas == set(Rasa)
        for record in records:
            assert (tmp_path / "corpus" / record.path).exists()
            assert record.genre == "Indian Classical"

    def test_byte_deterministic(self, tmp_path):
        spec = SyntheticSpec(files_per_class=1, duration_s=0.5, seed=11)
        first = generate_corpus(spec, tmp_path / "one")
        second = generate_corpus(spec, tmp_path / "two")
        for a, b in zip(sorted(first.parent.glob("*.wav")), sorted(second.parent.glob("*.wav"))):
            assert a.read_bytes() == b.read_bytes()
        assert first.read_text() == second.read_text()

    def test_different_seed_different_audio(self, tmp_path):
        a = generate_corpus(SyntheticSpec(files_per_class=1, duration_s=0.5, seed=1), tmp_path / "a")
        b = generate_corpus(SyntheticSpec(files_per_class=1, duration_s=0.5, seed=2), tmp_path / "b")
        a_wav = sorted(a.parent.glob("*.wav"))[0].read_bytes()
        b_wav = sorted(b.parent.glob("*.wav"))[0].read_bytes()
        assert a_wav != b_wav
