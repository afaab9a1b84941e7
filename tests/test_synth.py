import tracemalloc

import numpy as np
import pytest

from raga_moodkit.audio import AudioBuffer, decode_wav, encode_wav
from raga_moodkit.catalog import Rasa, load_manifest
from raga_moodkit.errors import ValidationError
from raga_moodkit.synth import (
    _BLOCK,
    DEFAULT_RECIPES,
    RasaRecipe,
    SyntheticSpec,
    generate_corpus,
    synth_signal,
)


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


def synth_signal_whole(recipe, duration_s, sample_rate, rng):
    """``synth_signal`` as it stood before it rendered in blocks, copied
    verbatim: time, vibrato, phase and noise span the whole render, and
    ``z`` comes from ``np.exp``."""
    n = int(round(duration_s * sample_rate))
    if n < 1:
        raise ValidationError(f"a render of {duration_s!r} s at {sample_rate} Hz holds no sample")
    t = np.arange(n) / sample_rate
    fundamental = recipe.fundamental_hz * (1.0 + rng.uniform(-0.01, 0.01))
    vibrato = 1.0 + recipe.vibrato_depth * np.sin(
        2.0 * np.pi * recipe.vibrato_hz * t + rng.uniform(0.0, 2.0 * np.pi)
    )
    phase = 2.0 * np.pi * np.cumsum(fundamental * vibrato) / sample_rate

    coeffs = []
    nyquist = sample_rate / 2.0
    for harmonic, amp in enumerate(recipe.harmonic_amps, start=1):
        if harmonic * fundamental >= 0.95 * nyquist:
            break
        jitter = amp * rng.uniform(0.85, 1.15)
        coeffs.append(jitter * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))

    signal = np.zeros(n)
    for start in range(0, n, _BLOCK):
        z = np.exp(1j * phase[start : start + _BLOCK])
        acc = np.zeros_like(z)
        for c in reversed(coeffs):
            acc += c
            acc *= z
        signal[start : start + _BLOCK] = acc.imag

    peak = np.max(np.abs(signal))
    if peak > 0:
        signal *= rng.uniform(0.6, 0.8) / peak
    signal += recipe.noise_floor * rng.standard_normal(n)
    return np.clip(signal, -0.98, 0.98)


class TestBlocks:
    #: a noise floor near full scale, so the final clip changes many samples
    LOUD = RasaRecipe(220.0, (1.0, 0.5), 5.0, noise_floor=0.4)

    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    @pytest.mark.parametrize("rate", [8000, 22050, 48000])
    def test_matches_whole_signal_render(self, n, rate):
        recipes = [DEFAULT_RECIPES[r] for r in sorted(Rasa, key=lambda r: r.value)] + [self.LOUD]
        for recipe in recipes:
            for seed in (0, 7):
                ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                ours = synth_signal(recipe, n / rate, rate, ours_rng)
                ref = synth_signal_whole(recipe, n / rate, rate, ref_rng)
                assert ours.shape == (n,)
                np.testing.assert_array_equal(ours.view(np.int64), ref.view(np.int64))
                assert ours_rng.bit_generator.state == ref_rng.bit_generator.state
        loud = synth_signal(self.LOUD, n / rate, rate, np.random.default_rng(0))
        if n > 1000:
            assert np.mean(np.abs(loud) == 0.98) > 0.05

    def test_cos_sin_fill_equals_complex_exp(self):
        # synth_signal fills z with np.cos/np.sin into the halves of a complex
        # block; that is bit for bit np.exp(1j * phase) on this numpy. (Not at
        # -0.0, where 1j * phase has imaginary part +0.0; a render's phase is
        # a sum of positive steps.)
        rng = np.random.default_rng(3)
        phases = [
            2.0 * np.pi * np.cumsum(rng.uniform(190.0, 340.0, 3 * _BLOCK + 7)) / 48000,
            rng.uniform(-1e4, 1e4, _BLOCK),
            np.array([0.0, np.pi / 2, np.pi, 1e-300, 2.0**40]),
        ]
        for phase in phases:
            z = np.empty(len(phase), dtype=np.complex128)
            np.cos(phase, out=z.real)
            np.sin(phase, out=z.imag)
            expected = np.exp(1j * phase)
            np.testing.assert_array_equal(
                z.view(np.float64).view(np.int64), expected.view(np.float64).view(np.int64)
            )

    def test_render_holds_little_more_than_its_output(self):
        recipe = DEFAULT_RECIPES[Rasa.VEERA]
        tracemalloc.start()
        try:
            signal = synth_signal(recipe, 30.0, 48000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= signal.nbytes + 4 * (1 << 20), f"{peak / 2**20:.1f} MB for {signal.nbytes / 2**20:.1f} MB"


class TestParallelCorpus:
    def test_jobs_do_not_change_the_corpus(self, tmp_path, inline_pool):
        spec = SyntheticSpec(files_per_class=2, duration_s=0.5, seed=11)
        serial = generate_corpus(spec, tmp_path / "serial")
        pooled = generate_corpus(spec, tmp_path / "pooled", jobs=10**6)
        assert inline_pool == [12]
        names = sorted(p.name for p in serial.parent.iterdir())
        assert len(names) == 13
        assert sorted(p.name for p in pooled.parent.iterdir()) == names
        for name in names:
            assert (pooled.parent / name).read_bytes() == (serial.parent / name).read_bytes()
