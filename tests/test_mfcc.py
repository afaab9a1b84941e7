import math
import tracemalloc

import numpy as np
import pytest

from raga_moodkit.audio import AudioBuffer, resample
from raga_moodkit.errors import DataError, ValidationError
from raga_moodkit.mfcc import (
    _CHUNK_FRAMES,
    _FFT_FRAMES,
    _frame_constants,
    MfccConfig,
    aggregate_features,
    build_filterbank,
    dct_ii,
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
    """The brute-force DFT that the frame pipeline is checked against."""

    def test_impulse(self):
        np.testing.assert_allclose(naive_dft([1, 0, 0, 0]), np.ones(4), atol=1e-15)

    def test_constant(self):
        np.testing.assert_allclose(naive_dft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-12)

    def test_matches_naive_on_random_2048(self):
        # the real FFT inside mfcc_frames against the defining sum
        rng = np.random.default_rng(42)
        frame = rng.standard_normal(2048)
        ours = np.fft.rfft(frame)
        reference = naive_dft(frame)[:1025]
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
        np.testing.assert_allclose(naive_dft(frame), expected, atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(7)
        for n in (64, 256, 1024):
            frame = rng.standard_normal(n)
            spectrum = naive_dft(frame)
            time_energy = np.sum(frame**2)
            freq_energy = np.sum(np.abs(spectrum) ** 2) / n
            assert abs(time_energy - freq_energy) / time_energy < 1e-9


class TestPowerSpectrum:
    def test_all_ones(self):
        np.testing.assert_allclose(power_spectrum(np.ones(5, dtype=complex)), np.ones(5))

    def test_magnitude_squared(self):
        spectrum = np.zeros(5, dtype=complex)
        spectrum[3] = 3 + 4j
        assert power_spectrum(spectrum)[3] == pytest.approx(25.0)

    def test_impulse_power_flat(self):
        assert np.allclose(power_spectrum(naive_dft([1, 0, 0, 0])[:3]), 1.0)

    def test_length(self):
        assert power_spectrum(np.fft.rfft(np.ones(2048))).shape == (1025,)


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
        with pytest.raises(ValidationError, match="adjacent filter boundaries closer than"):
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


class TestFilterSpans:
    @pytest.mark.parametrize("config", [MfccConfig(), MfccConfig(fft_size=512, hop=128, n_filters=26,
                                                                 n_coeffs=13, f_low=300.0, f_high=8000.0)])
    def test_span_bounds_each_filters_nonzero_weights(self, config):
        bank = build_filterbank(config)
        assert len(bank.spans) == config.n_filters
        for row, (first, stop) in zip(bank.weights, bank.spans):
            assert 0 <= first < stop <= len(row)
            assert row[first] > 0 and row[stop - 1] > 0
            assert not row[:first].any() and not row[stop:].any()

    def test_default_bank_is_sparse(self):
        spans = build_filterbank(MfccConfig()).spans
        assert max(stop - first for first, stop in spans) == 139
        assert sum(stop - first for first, stop in spans) == 1970

    def test_filter_without_a_bin_has_an_empty_span(self):
        # at 32 filters over 64 bins the lowest filters fall between bins
        config = MfccConfig(fft_size=128, hop=64, n_filters=32, n_coeffs=13)
        bank = build_filterbank(config)
        empty = [m for m, (first, stop) in enumerate(bank.spans) if first == stop]
        assert empty and not bank.weights[empty].any()
        energies = log_mel_energies(np.ones(65), bank, config.log_floor)
        assert np.all(energies[empty] == math.log(config.log_floor))


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
        power = power_spectrum(np.fft.rfft(frame))
        energies = log_mel_energies(power, bank, config.log_floor)
        expected = int(np.argmin(np.abs(bank.boundaries[1:-1] - target_bin)))
        assert int(np.argmax(energies)) == expected

    def test_length_mismatch(self):
        bank = build_filterbank(MfccConfig())
        with pytest.raises(ValidationError, match="power spectrum has 10 bins, filterbank expects 1025"):
            log_mel_energies(np.ones(10), bank)

    def test_batched_power_matches_dense_product(self):
        config = MfccConfig()
        bank = build_filterbank(config)
        power = np.random.default_rng(14).random((3, 5, 1025)) ** 4
        dense = np.log(np.maximum(power @ bank.weights.T, config.log_floor))
        energies = log_mel_energies(power, bank, config.log_floor)
        assert energies.shape == (3, 5, 40)
        np.testing.assert_allclose(energies, dense, rtol=0, atol=1e-13)
        np.testing.assert_allclose(log_mel_energies(power[1, 2], bank, config.log_floor), dense[1, 2],
                                   rtol=0, atol=1e-13)


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
        with pytest.raises(DataError, match="segment of 100 samples is shorter than one hop"):
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
            power = power_spectrum(naive_dft(frame)[: n // 2 + 1])
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
            power = power_spectrum(np.fft.rfft(segment.samples[:2048] * np.hanning(2048)))
            energies = log_mel_energies(power, bank, config.log_floor)
            peaks.append(int(np.argmax(energies)))
        assert peaks[0] < peaks[1] < peaks[2]


def mfcc_frames_dense(segment: AudioBuffer, config: MfccConfig) -> np.ndarray:
    """``mfcc_frames`` as it stood before the per-filter mel product, copied
    verbatim with the stages it called: the power as ``|X|**2`` and one dense
    product against the whole weight matrix. The dense product rounds
    differently as BLAS splits it among threads."""
    if segment.samples.ndim != 1:
        raise ValidationError("mfcc_frames expects mono audio; call to_mono first")
    if segment.sample_rate != config.sample_rate:
        raise ValidationError(
            f"segment rate {segment.sample_rate} != config rate {config.sample_rate}; resample first"
        )
    signal = np.asarray(segment.samples, dtype=np.float64)
    if len(signal) < config.hop:
        raise DataError(f"segment of {len(signal)} samples is shorter than one hop ({config.hop})")

    n_frames = -(-len(signal) // config.hop)
    padded = np.zeros((n_frames - 1) * config.hop + config.fft_size)
    padded[: len(signal)] = signal
    frames = np.lib.stride_tricks.sliding_window_view(padded, config.fft_size)[:: config.hop]

    window, bank = _frame_constants(config)

    out = np.empty((n_frames, config.n_coeffs))
    for start in range(0, n_frames, _CHUNK_FRAMES):
        power = np.abs(np.fft.rfft(frames[start : start + _CHUNK_FRAMES] * window)) ** 2
        energies = np.log(np.maximum(power @ bank.weights.T, config.log_floor))
        out[start : start + _CHUNK_FRAMES] = dct_ii(energies, config.n_coeffs)
    return out


#: Largest per-frame coefficient change allowed against ``mfcc_frames_dense``:
#: the per-filter product and re^2 + im^2 round differently, at about 1e-14.
DENSE_TOLERANCE = 1e-12


class TestAgainstDenseProduct:
    @pytest.mark.parametrize("n", [512, 700, 2047, 2048, 2049, _CHUNK_FRAMES * 512 + 1535,
                                   _CHUNK_FRAMES * 512 + 1536, 3 * _CHUNK_FRAMES * 512 + 9])
    def test_frames_within_tolerance(self, n):
        rng = np.random.default_rng(n)
        t = np.arange(n) / 22050
        samples = 0.4 * np.sin(2 * np.pi * 440.0 * t) + 0.05 * rng.standard_normal(n)
        samples[: n // 5] = 0.0  # silence reaches the log floor
        segment = AudioBuffer(samples=samples, sample_rate=22050)
        ours, dense = mfcc_frames(segment, MfccConfig()), mfcc_frames_dense(segment, MfccConfig())
        assert ours.shape == dense.shape == (-(-n // 512), 40)
        assert np.max(np.abs(ours - dense)) <= DENSE_TOLERANCE

    def test_strided_segment_within_tolerance(self):
        # a whole-ratio resample is a strided view; it is framed like a copy
        rng = np.random.default_rng(4)
        wide = rng.uniform(-0.5, 0.5, 2 * 40000)
        segment = AudioBuffer(samples=wide[::2], sample_rate=22050)
        copy = AudioBuffer(samples=wide[::2].copy(), sample_rate=22050)
        ours = mfcc_frames(segment, MfccConfig())
        assert np.array_equal(ours, mfcc_frames(copy, MfccConfig()))
        assert np.max(np.abs(ours - mfcc_frames_dense(segment, MfccConfig()))) <= DENSE_TOLERANCE

    def test_other_config_within_tolerance(self):
        config = MfccConfig(fft_size=512, hop=128, n_filters=26, n_coeffs=13, sample_rate=16000,
                            f_low=100.0, f_high=7000.0)
        segment = AudioBuffer(samples=np.random.default_rng(9).uniform(-1, 1, 50000), sample_rate=16000)
        diff = mfcc_frames(segment, config) - mfcc_frames_dense(segment, config)
        assert np.max(np.abs(diff)) <= DENSE_TOLERANCE


def _squared_magnitude(bins) -> np.ndarray:
    """re^2 + im^2 per bin; ``mfcc_frames`` applies it to the real FFT's bins."""
    return bins.real**2 + bins.imag**2


def mfcc_frames_padded(segment: AudioBuffer, config: MfccConfig) -> np.ndarray:
    """``mfcc_frames`` as it stood before it read whole frames in place, copied
    verbatim with the power rule it called: the whole segment is copied into
    a zero-padded array, and each batch of frames is windowed and transformed
    in one piece."""
    if segment.samples.ndim != 1:
        raise ValidationError("mfcc_frames expects mono audio; call to_mono first")
    if segment.sample_rate != config.sample_rate:
        raise ValidationError(
            f"segment rate {segment.sample_rate} != config rate {config.sample_rate}; resample first"
        )
    signal = np.asarray(segment.samples, dtype=np.float64)
    if len(signal) < config.hop:
        raise DataError(f"segment of {len(signal)} samples is shorter than one hop ({config.hop})")

    n_frames = -(-len(signal) // config.hop)
    padded = np.zeros((n_frames - 1) * config.hop + config.fft_size)
    padded[: len(signal)] = signal
    frames = np.lib.stride_tricks.sliding_window_view(padded, config.fft_size)[:: config.hop]

    window, bank = _frame_constants(config)

    out = np.empty((n_frames, config.n_coeffs))
    for start in range(0, n_frames, _CHUNK_FRAMES):
        power = _squared_magnitude(np.fft.rfft(frames[start : start + _CHUNK_FRAMES] * window))
        energies = log_mel_energies(power, bank, config.log_floor)
        out[start : start + _CHUNK_FRAMES] = dct_ii(energies, config.n_coeffs)
    return out


def frame_edge_lengths(config: MfccConfig) -> list[int]:
    """Segment lengths at the kernel's edges: below one frame, exactly one
    frame, and one sample either side of the lengths at which the whole
    frames fill one FFT pass, one mel batch, and a batch and a pass."""
    hop, size = config.hop, config.fft_size
    edges = [size + (whole - 1) * hop for whole in (1, _FFT_FRAMES, _CHUNK_FRAMES, _CHUNK_FRAMES + _FFT_FRAMES)]
    lengths = {hop, (hop + size) // 2, size - 1, 3 * _CHUNK_FRAMES * hop + 9}
    lengths.update(n + d for n in edges for d in (-1, 0, 1))
    return sorted(n for n in lengths if n >= hop)


EDGE_CONFIGS = [
    MfccConfig(),
    MfccConfig(fft_size=256, hop=64, n_filters=12, n_coeffs=8),
    # frames that do not overlap: no frame is padded when hop divides the length
    MfccConfig(fft_size=512, hop=512, n_filters=20, n_coeffs=13),
]


class TestAgainstPaddedCopy:
    """The kernel reads whole frames in place and pads only the tail, yet every
    bit is what framing a zero-padded copy of the whole segment gives."""

    @pytest.mark.parametrize("config", EDGE_CONFIGS, ids=["default", "256-64", "512-512"])
    def test_bitwise_equal_at_the_frame_edges(self, config):
        rng = np.random.default_rng(config.fft_size + config.hop)
        for n in frame_edge_lengths(config):
            samples = rng.uniform(-0.5, 0.5, n)
            samples[: n // 7] = 0.0  # silence reaches the log floor
            segment = AudioBuffer(samples=samples, sample_rate=config.sample_rate)
            ours, reference = mfcc_frames(segment, config), mfcc_frames_padded(segment, config)
            assert ours.shape == reference.shape == (-(-n // config.hop), config.n_coeffs)
            np.testing.assert_array_equal(ours.view(np.int64), reference.view(np.int64), err_msg=f"n={n}")

    def test_bitwise_equal_on_a_whole_ratio_resample(self):
        # 44.1 -> 22.05 kHz keeps every other sample: a strided view, read in place
        rng = np.random.default_rng(11)
        for n in (2 * 11025, 2 * (_CHUNK_FRAMES * 512 + 1536) + 1, 2 * 60 * 22050):
            wide = AudioBuffer(samples=rng.uniform(-0.5, 0.5, n), sample_rate=44100)
            segment = resample(wide, 22050)
            assert segment.samples.strides == (16,)
            ours, reference = mfcc_frames(segment, MfccConfig()), mfcc_frames_padded(segment, MfccConfig())
            np.testing.assert_array_equal(ours.view(np.int64), reference.view(np.int64))

    def test_a_minute_holds_one_batch_of_power_beside_its_output(self):
        # a 60 s cut (10.6 MB) is not copied; a mel batch's power spectra
        # (2.1 MB) and the FFT pass's buffers come on top of the output
        samples = np.random.default_rng(12).uniform(-0.5, 0.5, 60 * 22050)
        segment = AudioBuffer(samples=samples, sample_rate=22050)
        mfcc_frames(segment, MfccConfig())  # window and filterbank cached
        tracemalloc.start()
        try:
            frames = mfcc_frames(segment, MfccConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        power = _CHUNK_FRAMES * 1025 * 8
        assert peak <= frames.nbytes + power + (1 << 20), f"{peak / 2**20:.1f} MiB"


class TestFrameConstants:
    def test_cached_arrays_are_read_only(self):
        window, bank = _frame_constants(MfccConfig())
        for arr in (window, bank.boundaries, bank.weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_cached_bank_is_the_built_one(self):
        config = MfccConfig(fft_size=512, hop=128, n_filters=20, n_coeffs=13)
        window, bank = _frame_constants(config)
        fresh = build_filterbank(config)
        assert np.array_equal(bank.weights, fresh.weights)
        assert np.array_equal(bank.boundaries, fresh.boundaries)
        assert bank.spans == fresh.spans
        assert np.array_equal(window, 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(512) / 511))

    def test_alternating_configs_match_fresh_computation(self):
        rng = np.random.default_rng(8)
        configs = (MfccConfig(), MfccConfig(sample_rate=16000, n_filters=26, n_coeffs=13))
        segments = [AudioBuffer(samples=rng.uniform(-0.5, 0.5, 20000), sample_rate=c.sample_rate)
                    for c in configs]
        fresh = []
        for segment, config in zip(segments, configs):
            _frame_constants.cache_clear()
            fresh.append(mfcc_frames(segment, config))
        for _ in range(2):
            for segment, config, expected in zip(segments, configs, fresh):
                assert np.array_equal(mfcc_frames(segment, config), expected)
        assert _frame_constants.cache_info().hits >= 3


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

    def test_zero_variance(self):
        with pytest.raises(DataError, match=r"constant feature columns: \[0\]"):
            feature_correlation(np.column_stack([np.ones(5), np.arange(5.0)]))


def test_segment_features_composes():
    rng = np.random.default_rng(13)
    segment = AudioBuffer(samples=rng.uniform(-0.5, 0.5, 30000), sample_rate=22050)
    fv = segment_features(segment, MfccConfig())
    assert fv.values.shape == (40,)
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
