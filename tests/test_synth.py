import numpy as np
import pytest

from raga_moodkit.audio import AudioBuffer, decode_wav, encode_wav
from raga_moodkit.catalog import Rasa, load_manifest
from raga_moodkit.errors import ValidationError
from raga_moodkit.synth import _BLOCK, DEFAULT_RECIPES, SyntheticSpec, generate_corpus, synth_signal


def synth_reference(recipe, duration_s, sample_rate, rng):
    """The tone summed one np.sin per harmonic, drawing from ``rng`` in the
    order ``synth_signal`` must keep."""
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    fundamental = recipe.fundamental_hz * (1.0 + rng.uniform(-0.01, 0.01))
    vibrato = 1.0 + recipe.vibrato_depth * np.sin(
        2.0 * np.pi * recipe.vibrato_hz * t + rng.uniform(0.0, 2.0 * np.pi)
    )
    phase = 2.0 * np.pi * np.cumsum(fundamental * vibrato) / sample_rate

    signal = np.zeros(n)
    nyquist = sample_rate / 2.0
    for harmonic, amp in enumerate(recipe.harmonic_amps, start=1):
        if harmonic * fundamental >= 0.95 * nyquist:
            break
        jitter = amp * rng.uniform(0.85, 1.15)
        signal += jitter * np.sin(harmonic * phase + rng.uniform(0.0, 2.0 * np.pi))

    peak = np.max(np.abs(signal))
    if peak > 0:
        signal *= rng.uniform(0.6, 0.8) / peak
    signal += recipe.noise_floor * rng.standard_normal(n)
    return np.clip(signal, -0.98, 0.98)


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

    def test_render_shorter_than_one_sample_is_refused(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            SyntheticSpec(duration_s=1e-9)
        assert SyntheticSpec(duration_s=1 / 22050).duration_s == 1 / 22050
        with pytest.raises(ValidationError, match="holds no sample"):
            synth_signal(DEFAULT_RECIPES[Rasa.VEERA], 1e-9, 22050, np.random.default_rng(0))
        one = synth_signal(DEFAULT_RECIPES[Rasa.VEERA], 1 / 22050, 22050, np.random.default_rng(0))
        assert one.shape == (1,) and np.all(np.isfinite(one))


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


class TestAgainstReference:
    # 3.1 s spans more than one block at every full rate and is no multiple of it
    DURATION_S = 3.1
    FULL_RATES = (22050, 44100, 48000)
    # 0.95 * Nyquist falls between the first and the last harmonic of every
    # recipe at 1.2 kHz, and below every fundamental at 300 Hz
    LOW_RATES = (1200, 300)

    @pytest.mark.parametrize("rate", FULL_RATES + LOW_RATES)
    @pytest.mark.parametrize("rasa", sorted(Rasa, key=lambda r: r.value), ids=lambda r: r.value)
    def test_matches_per_harmonic_sines(self, rasa, rate):
        recipe = DEFAULT_RECIPES[rasa]
        n = int(round(self.DURATION_S * rate))
        if rate in self.FULL_RATES:
            assert n > _BLOCK and n % _BLOCK
        ours_rng, ref_rng = np.random.default_rng(rate), np.random.default_rng(rate)
        ours = synth_signal(recipe, self.DURATION_S, rate, ours_rng)
        ref = synth_reference(recipe, self.DURATION_S, rate, ref_rng)

        assert ours.shape == ref.shape == (n,)
        assert np.max(np.abs(ours - ref)) <= 1e-9
        # equal generator state afterwards: the same number of draws (the
        # renders above only match if they also come in the same order)
        assert ours_rng.bit_generator.state == ref_rng.bit_generator.state

        pcm = [decode_wav(encode_wav(AudioBuffer(samples=s, sample_rate=rate))).samples
               for s in (ours, ref)]
        assert np.max(np.abs(pcm[0] - pcm[1])) <= 2.0**-15

    def test_low_rates_cut_harmonics(self):
        partial, none = (0.95 * rate / 2.0 for rate in self.LOW_RATES)
        for recipe in DEFAULT_RECIPES.values():
            lowest, highest = 0.99 * recipe.fundamental_hz, 1.01 * recipe.fundamental_hz
            assert highest < partial <= len(recipe.harmonic_amps) * lowest
            assert none <= lowest


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
