import math

import numpy as np
import pytest

from raga_moodkit.audio import AudioBuffer
from raga_moodkit.errors import (
    DegenerateBank,
    EmptySegment,
    LengthMismatch,
    ValidationError,
    ZeroVariance,
)
from raga_moodkit.mfcc import (
    _CHUNK_FRAMES,
    FeatureVector,
    MfccConfig,
    aggregate_features,
    build_filterbank,
    dct_ii,
    dft,
    feature_correlation,
    filterbank_boundaries,
    log_mel_energies,
    mel,
    mel_inv,
    mfcc_frames,
    power_spectrum,
    segment_features,
)


def naive_dft(frame):
    """Brute-force O(N^2) evaluation of the defining sum."""
    frame = np.asarray(frame, dtype=np.complex128)
    n = len(frame)
    k = np.arange(n)
    matrix = np.exp(-2j * np.pi * np.outer(np.arange(n), k) / n)
    return frame @ matrix


def naive_dct(values, n_coeffs):
    """Brute-force double loop over the cosine sum."""
    m = len(values)
    out = []
    for n in range(n_coeffs):
        total = 0.0
        for i in range(m):
            total += values[i] * math.cos(math.pi * n * (i + 0.5) / m)
        out.append(total)
    return np.array(out)


class TestDft:
    def test_impulse(self):
        np.testing.assert_allclose(dft([1, 0, 0, 0]), np.ones(4), atol=1e-15)

    def test_constant(self):
        np.testing.assert_allclose(dft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-12)

    def test_matches_naive_on_random_2048(self):
        rng = np.random.default_rng(42)
        frame = rng.standard_normal(2048)
        ours = dft(frame)
        reference = naive_dft(frame)
        assert np.max(np.abs(ours - reference)) / np.max(np.abs(reference)) < 1e-9

    def test_small_sizes_vs_pure_python_sum(self):
        rng = np.random.default_rng(0)
        frame = rng.standard_normal(16)
        expected = [
            sum(frame[n] * complex(math.cos(-2 * math.pi * n * k / 16),
                                   math.sin(-2 * math.pi * n * k / 16))
                for n in range(16))
            for k in range(16)
        ]
        np.testing.assert_allclose(dft(frame), expected, atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(7)
        for n in (64, 256, 1024):
            frame = rng.standard_normal(n)
            spectrum = dft(frame)
            time_energy = np.sum(frame**2)
            freq_energy = np.sum(np.abs(spectrum) ** 2) / n
            assert abs(time_energy - freq_energy) / time_energy < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            dft([1, 0, 0, 0], n=8)

    def test_non_power_of_two(self):
        with pytest.raises(ValidationError):
            dft([1.0, 2.0, 3.0])


class TestPowerSpectrum:
    def test_all_ones(self):
        np.testing.assert_allclose(power_spectrum(np.ones(8, dtype=complex)), np.ones(5))

    def test_magnitude_squared(self):
        spectrum = np.zeros(8, dtype=complex)
        spectrum[3] = 3 + 4j
        assert power_spectrum(spectrum)[3] == pytest.approx(25.0)

    def test_impulse_power_flat(self):
        assert np.allclose(power_spectrum(dft([1, 0, 0, 0])), 1.0)

    def test_length(self):
        assert power_spectrum(np.ones(2048, dtype=complex)).shape == (1025,)


class TestMelScale:
    def test_zero(self):
        assert mel(0) == 0.0
        assert mel_inv(0) == 0.0

    def test_700Hz(self):
        assert float(mel(700)) == pytest.approx(1125 * math.log(2), rel=1e-12)

    def test_roundtrip(self):
        for f in (100.0, 1000.0, 11025.0):
            assert float(mel_inv(mel(f))) == pytest.approx(f, abs=1e-9)

    def test_strictly_increasing(self):
        f = np.linspace(0, 11025, 500)
        assert np.all(np.diff(mel(f)) > 0)
        assert np.all(np.diff(mel_inv(mel(f))) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            mel(-1.0)


class TestBoundaries:
    def test_edges(self):
        config = MfccConfig()
        bounds = filterbank_boundaries(config)
        assert bounds[0] == pytest.approx(0.0, abs=1e-9)
        assert bounds[-1] == pytest.approx(2048 * 11025 / 22050, abs=1e-6)

    def test_first_boundary_hand_formula(self):
        # independent evaluation with math.* only
        config = MfccConfig()
        top_mel = 1125 * math.log(1 + 11025 / 700)
        first_hz = 700 * (math.exp((top_mel / 41) / 1125) - 1)
        expected = first_hz * 2048 / 22050
        bounds = filterbank_boundaries(config)
        assert bounds[1] == pytest.approx(expected, rel=1e-12)
        assert np.all(np.diff(bounds) > 0)

    def test_nonzero_f_low(self):
        config = MfccConfig(f_low=300.0)
        bounds = filterbank_boundaries(config)
        assert bounds[0] == pytest.approx(300.0 * 2048 / 22050, rel=1e-12)

    def test_degenerate_bank(self):
        # a near-zero frequency band squeezes adjacent boundaries together
        with pytest.raises(DegenerateBank):
            filterbank_boundaries(
                MfccConfig(f_low=5000.0, f_high=5000.0 + 1e-7, n_filters=40)
            )


class TestFilterbank:
    def test_peak_when_boundary_integral(self):
        # engineer a bank whose center lands on an integer bin: f_low=0 and
        # a linear check instead: evaluate weights at the nearest bins
        config = MfccConfig()
        bank = build_filterbank(config)
        bounds = bank.boundaries
        k = np.arange(config.fft_size // 2 + 1)
        for m in range(1, config.n_filters + 1):
            row = bank.weights[m - 1]
            inside = (k > bounds[m - 1]) & (k < bounds[m + 1])
            assert np.all(row[~inside] == 0.0)
            center = bounds[m]
            left, right = int(np.floor(center)), int(np.ceil(center))
            if left == center:
                assert row[left] == pytest.approx(1.0)

    def test_zero_outside_support(self):
        bank = build_filterbank(MfccConfig())
        bounds = bank.boundaries
        row = bank.weights[10]
        k_low = int(np.floor(bounds[10]))
        k_high = int(np.ceil(bounds[12]))
        assert row[k_low] == 0.0 or bounds[10] == k_low
        assert np.all(row[k_high + 1 :] == 0.0)

    def test_partition_of_unity(self):
        config = MfccConfig()
        bank = build_filterbank(config)
        k_first = math.ceil(bank.boundaries[1])
        k_last = math.floor(bank.boundaries[-2])
        sums = bank.weights.sum(axis=0)[k_first : k_last + 1]
        assert np.all(np.abs(sums - 1.0) <= 1e-9)

    def test_rising_branch_value(self):
        config = MfccConfig()
        bank = build_filterbank(config)
        bounds = bank.boundaries
        m = 20
        k = int(np.floor((bounds[m] + bounds[m - 1]) / 2))
        expected = (k - bounds[m - 1]) / (bounds[m] - bounds[m - 1])
        assert bank.weights[m - 1, k] == pytest.approx(expected, rel=1e-12)


class TestLogMelEnergies:
    def test_zero_power_hits_floor(self):
        config = MfccConfig()
        bank = build_filterbank(config)
        energies = log_mel_energies(np.zeros(1025), bank, config.log_floor)
        np.testing.assert_allclose(energies, math.log(1e-10))

    def test_unit_power_gives_filter_areas(self):
        config = MfccConfig()
        bank = build_filterbank(config)
        energies = log_mel_energies(np.ones(1025), bank, config.log_floor)
        areas = bank.weights.sum(axis=1)
        np.testing.assert_allclose(energies, np.log(np.maximum(areas, config.log_floor)))

    def test_tone_lands_in_nearest_filter(self):
        config = MfccConfig()
        bank = build_filterbank(config)
        # put the tone exactly on the bin nearest filter 20's center
        target_bin = int(round(bank.boundaries[21]))
        freq = target_bin * config.sample_rate / config.fft_size
        t = np.arange(config.fft_size) / config.sample_rate
        frame = np.sin(2 * np.pi * freq * t)
        power = power_spectrum(dft(frame))
        energies = log_mel_energies(power, bank, config.log_floor)
        expected = int(np.argmin(np.abs(bank.boundaries[1:-1] - target_bin)))
        assert int(np.argmax(energies)) == expected

    def test_length_mismatch(self):
        bank = build_filterbank(MfccConfig())
        with pytest.raises(LengthMismatch):
            log_mel_energies(np.ones(10), bank)


class TestDct:
    def test_constant_input(self):
        out = dct_ii(np.full(40, 2.5))
        assert out[0] == pytest.approx(40 * 2.5)
        assert np.max(np.abs(out[1:])) < 1e-10

    def test_two_point_hand_value(self):
        out = dct_ii(np.array([1.0, -1.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(40)
        np.testing.assert_allclose(dct_ii(values), naive_dct(values, 40), atol=1e-12)

    def test_truncation(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal(40)
        np.testing.assert_allclose(dct_ii(values, 13), naive_dct(values, 13), atol=1e-12)


class TestFrames:
    def test_frame_count_for_60s(self):
        segment = AudioBuffer(samples=np.zeros(60 * 22050), sample_rate=22050)
        frames = mfcc_frames(segment, MfccConfig())
        assert frames.shape == (math.ceil(60 * 22050 / 512), 40)

    def test_all_zero_segment(self):
        config = MfccConfig()
        segment = AudioBuffer(samples=np.zeros(4096), sample_rate=22050)
        frames = mfcc_frames(segment, config)
        np.testing.assert_allclose(frames[:, 0], 40 * math.log(config.log_floor))
        assert np.max(np.abs(frames[:, 1:])) < 1e-9

    def test_too_short(self):
        segment = AudioBuffer(samples=np.zeros(100), sample_rate=22050)
        with pytest.raises(EmptySegment):
            mfcc_frames(segment, MfccConfig())

    def test_rate_mismatch(self):
        segment = AudioBuffer(samples=np.zeros(4096), sample_rate=44100)
        with pytest.raises(ValidationError):
            mfcc_frames(segment, MfccConfig())

    def test_matches_per_frame_pipeline(self):
        # batched path against the single-frame operations, across a batch boundary
        config = MfccConfig(fft_size=256, hop=64, n_filters=12, n_coeffs=8)
        rng = np.random.default_rng(5)
        n_samples = (_CHUNK_FRAMES + 40) * 64 + 17
        segment = AudioBuffer(samples=rng.uniform(-0.5, 0.5, n_samples), sample_rate=22050)
        frames = mfcc_frames(segment, config)

        n = 256
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / (n - 1))
        bank = build_filterbank(config)
        n_frames = math.ceil(n_samples / 64)
        assert frames.shape == (n_frames, 8) and n_frames > _CHUNK_FRAMES
        padded = np.zeros((n_frames - 1) * 64 + n)
        padded[:n_samples] = segment.samples
        for i in range(n_frames):
            frame = padded[i * 64 : i * 64 + n] * window
            power = power_spectrum(naive_dft(frame))
            energies = np.log(np.maximum(power @ bank.weights.T, config.log_floor))
            np.testing.assert_allclose(frames[i], dct_ii(energies, 8), atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        samples = rng.uniform(-0.5, 0.5, 30000)
        a = mfcc_frames(AudioBuffer(samples=samples, sample_rate=22050), MfccConfig())
        b = mfcc_frames(AudioBuffer(samples=samples.copy(), sample_rate=22050), MfccConfig())
        assert np.array_equal(a, b)

    def test_tone_tracking_monotone(self):
        config = MfccConfig()
        peaks = []
        t = np.arange(22050) / 22050
        for freq in (500.0, 1000.0, 2000.0):
            segment = AudioBuffer(samples=0.5 * np.sin(2 * np.pi * freq * t), sample_rate=22050)
            bank = build_filterbank(config)
            power = power_spectrum(dft(segment.samples[:2048] * np.hanning(2048)))
            energies = log_mel_energies(power, bank, config.log_floor)
            peaks.append(int(np.argmax(energies)))
        assert peaks[0] < peaks[1] < peaks[2]


class TestAggregate:
    def test_single_frame_identity(self):
        frame = np.arange(40, dtype=np.float64).reshape(1, -1)
        np.testing.assert_array_equal(aggregate_features(frame).values, frame[0])

    def test_mean_of_two(self):
        frames = np.vstack([np.zeros(40), np.full(40, 2.0)])
        np.testing.assert_allclose(aggregate_features(frames).values, 1.0)

    def test_order_invariant(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((10, 40))
        shuffled = frames[rng.permutation(10)]
        np.testing.assert_allclose(
            aggregate_features(frames).values, aggregate_features(shuffled).values, atol=1e-12
        )

    def test_source_id_carried(self):
        fv = aggregate_features(np.zeros((2, 4)), source_id="song:0")
        assert fv.source_id == "song:0"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_features(np.empty((0, 40)))


class TestCorrelation:
    def test_diagonal_ones(self):
        rng = np.random.default_rng(8)
        matrix = feature_correlation(rng.standard_normal((30, 6)))
        np.testing.assert_allclose(np.diag(matrix), 1.0)

    def test_duplicate_columns(self):
        rng = np.random.default_rng(9)
        col = rng.standard_normal(30)
        matrix = feature_correlation(np.column_stack([col, col, rng.standard_normal(30)]))
        assert matrix[0, 1] == pytest.approx(1.0)

    def test_negated_column(self):
        rng = np.random.default_rng(10)
        col = rng.standard_normal(30)
        matrix = feature_correlation(np.column_stack([col, -col]))
        assert matrix[0, 1] == pytest.approx(-1.0)

    def test_accepts_feature_vectors(self):
        vectors = [FeatureVector(values=np.array([1.0, 2.0]), source_id=str(i)) for i in range(3)]
        vectors.append(FeatureVector(values=np.array([4.0, -1.0]), source_id="x"))
        matrix = feature_correlation(vectors)
        assert matrix.shape == (2, 2)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            feature_correlation(np.column_stack([np.ones(5), np.arange(5.0)]))


def test_segment_features_composes():
    rng = np.random.default_rng(13)
    segment = AudioBuffer(samples=rng.uniform(-0.5, 0.5, 30000), sample_rate=22050)
    fv = segment_features(segment, MfccConfig(), source_id="song:1")
    assert fv.values.shape == (40,)
    assert fv.source_id == "song:1"
    assert np.all(np.isfinite(fv.values))


def test_config_validation():
    with pytest.raises(ValidationError):
        MfccConfig(fft_size=1000)
    with pytest.raises(ValidationError):
        MfccConfig(hop=0)
    with pytest.raises(ValidationError):
        MfccConfig(n_coeffs=41)
    with pytest.raises(ValidationError):
        MfccConfig(f_low=12000.0)
    with pytest.raises(ValidationError):
        MfccConfig(log_floor=0.0)
    assert MfccConfig().f_high == 11025.0
