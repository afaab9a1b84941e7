import io
import struct
import wave

import numpy as np
import pytest

from raga_moodkit.audio import (
    DEFAULT_BI_SAMPLE_PLAN,
    AudioBuffer,
    SegmentPlan,
    bi_sample,
    decode_wav,
    encode_wav,
    extract_segment,
    parse_plan,
    resample,
    to_mono,
)
from raga_moodkit.errors import (
    MalformedHeader,
    NonFiniteSample,
    StartBeyondEnd,
    TruncatedData,
    UnsupportedEncoding,
    ValidationError,
)


def reference_wav_bytes(samples_int16, sample_rate, channels=1):
    """Write 16-bit PCM through the stdlib writer (independent of our codec)."""
    payload = io.BytesIO()
    with wave.open(payload, "wb") as handle:
        handle.setnchannels(channels)
        handle.setsampwidth(2)
        handle.setframerate(sample_rate)
        handle.writeframes(np.asarray(samples_int16, dtype="<i2").tobytes())
    return payload.getvalue()


class TestDecode:
    def test_pcm16_scaling(self):
        data = reference_wav_bytes([0, 16384, -16384], 8000)
        buffer = decode_wav(data)
        assert buffer.sample_rate == 8000
        np.testing.assert_array_equal(buffer.samples, [0.0, 0.5, -0.5])

    def test_header_only_is_malformed(self):
        with pytest.raises(MalformedHeader):
            decode_wav(b"RIFF")

    def test_not_riff(self):
        with pytest.raises(MalformedHeader):
            decode_wav(b"OggS" + b"\x00" * 64)

    def test_missing_data_chunk(self):
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        blob = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt)) + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        with pytest.raises(MalformedHeader):
            decode_wav(blob)

    def test_stereo_roundtrip_sample_exact(self):
        # stereo with extreme codes on both channels, via the reference writer
        rng = np.random.default_rng(1)
        left = np.concatenate([[32767], rng.integers(-32768, 32768, 50)])
        right = np.concatenate([[-32768], rng.integers(-32768, 32768, 50)])
        interleaved = np.empty(2 * len(left), dtype=np.int64)
        interleaved[0::2] = left
        interleaved[1::2] = right
        buffer = decode_wav(reference_wav_bytes(interleaved, 44100, channels=2))
        assert buffer.n_channels == 2
        np.testing.assert_array_equal(buffer.samples[:, 0], left / 32768.0)
        np.testing.assert_array_equal(buffer.samples[:, 1], right / 32768.0)

    def test_own_writer_roundtrip_pcm16(self):
        rng = np.random.default_rng(2)
        original = decode_wav(reference_wav_bytes(rng.integers(-32768, 32768, 200), 22050))
        again = decode_wav(encode_wav(original, "pcm16"))
        np.testing.assert_array_equal(original.samples, again.samples)

    def test_own_writer_readable_by_stdlib(self):
        samples = np.array([0.0, 0.25, -0.25, 1.0, -1.0])
        blob = encode_wav(AudioBuffer(samples=samples, sample_rate=8000))
        with wave.open(io.BytesIO(blob), "rb") as handle:
            assert handle.getnchannels() == 1
            assert handle.getframerate() == 8000
            decoded = np.frombuffer(handle.readframes(5), dtype="<i2")
        assert decoded[3] == 32767  # +1.0 clips to the max positive code
        assert decoded[4] == -32768

    def test_pcm24_roundtrip(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-0.9, 0.9, 100)
        buffer = AudioBuffer(samples=samples, sample_rate=22050)
        decoded = decode_wav(encode_wav(buffer, "pcm24"))
        assert np.max(np.abs(decoded.samples - samples)) < 2.0**-23

    def test_float32_roundtrip(self):
        samples = np.array([0.0, 0.5, -0.5, 0.999, -0.999])
        decoded = decode_wav(encode_wav(AudioBuffer(samples=samples, sample_rate=8000), "float32"))
        np.testing.assert_allclose(decoded.samples, samples, atol=1e-7)

    def test_unsupported_encoding(self):
        fmt = struct.pack("<HHIIHH", 7, 1, 8000, 8000, 1, 8)  # mu-law
        blob = (
            b"RIFF" + struct.pack("<I", 36) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 2) + b"\x00\x00"
        )
        with pytest.raises(UnsupportedEncoding):
            decode_wav(blob)

    def test_truncated_data(self):
        good = reference_wav_bytes([1, 2, 3, 4], 8000)
        with pytest.raises(TruncatedData):
            decode_wav(good[:-4])


def wav_with(fmt: bytes, payload: bytes) -> bytes:
    """RIFF stream with the given fmt body and data payload, no pad byte."""
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def extensible_twin(plain: bytes, guid_code: int | None = None, guid_tail: bytes | None = None) -> bytes:
    """Rewrap an ``encode_wav`` stream under a WAVE_FORMAT_EXTENSIBLE fmt chunk."""
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", plain, 20)
    tail = guid_tail if guid_tail is not None else bytes.fromhex("000000001000800000aa00389b71")
    guid = struct.pack("<H", tag if guid_code is None else guid_code) + tail
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, byte_rate, block_align, bits,
                      22, bits, (1 << channels) - 1) + guid
    (size,) = struct.unpack_from("<I", plain, 40)
    return wav_with(fmt, plain[44 : 44 + size])


class TestPcm24Edges:
    @staticmethod
    def int64_reference(payload):
        # the widening formula: bytes as int64, OR-ed, then two's complement
        raw = np.frombuffer(payload, dtype=np.uint8)
        raw = raw[: len(raw) - len(raw) % 3].reshape(-1, 3).astype(np.int64)
        value = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        value -= (value >= 1 << 23) * (1 << 24)
        return value.astype(np.float64) / 2.0**23

    @pytest.mark.parametrize("partial", [b"", b"\x7f", b"\x80\xff"])
    def test_edge_codes_match_widening_formula(self, partial):
        codes = [-(2**23), -1, 0, 1, 2**23 - 1, -(2**22), 2**22]
        payload = b"".join(c.to_bytes(3, "little", signed=True) for c in codes) + partial
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 24000, 3, 24)
        decoded = decode_wav(wav_with(fmt, payload)).samples
        np.testing.assert_array_equal(decoded, self.int64_reference(payload))
        np.testing.assert_array_equal(decoded, np.array(codes) / 2.0**23)

    def test_random_stereo_matches_widening_formula(self):
        frames = np.random.default_rng(4).integers(0, 256, 3 * 2 * 500, dtype=np.uint8).tobytes()
        fmt = struct.pack("<HHIIHH", 1, 2, 8000, 48000, 6, 24)
        # an odd trailing byte is not a sample; a lone trailing sample is not a frame
        for tail in (b"", b"\x5a", b"\x01\x80\xff\xa5"):
            decoded = decode_wav(wav_with(fmt, frames + tail)).samples
            np.testing.assert_array_equal(decoded, self.int64_reference(frames).reshape(-1, 2))

    def test_encoder_writes_the_rounded_clipped_codes(self):
        samples = np.concatenate([
            [-2.0, -1.0, -(2.0**-24), -0.0, 0.0, 2.0**-24, 1.0 - 2.0**-24, 1.0, 2.0],
            np.random.default_rng(5).uniform(-1.1, 1.1, 991),
        ])
        body = encode_wav(AudioBuffer(samples=samples, sample_rate=8000), "pcm24")[44:]
        codes = np.clip(np.rint(samples * 2.0**23), -(2**23), 2**23 - 1).astype(np.int64)
        expected = b"".join(int(c).to_bytes(3, "little", signed=True) for c in codes)
        assert body == expected


class TestExtensible:
    @pytest.mark.parametrize("encoding", ["pcm16", "pcm24", "float32"])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_decodes_like_plain_twin(self, encoding, channels):
        rng = np.random.default_rng(channels)
        samples = rng.uniform(-0.9, 0.9, (301, channels))
        plain = encode_wav(AudioBuffer(samples=samples, sample_rate=44100), encoding)
        a = decode_wav(plain)
        b = decode_wav(extensible_twin(plain))
        assert b.sample_rate == a.sample_rate == 44100
        assert b.samples.shape == a.samples.shape
        np.testing.assert_array_equal(b.samples, a.samples)

    def test_unknown_guid_rejected(self):
        plain = encode_wav(AudioBuffer(samples=np.zeros(8), sample_rate=8000), "pcm16")
        with pytest.raises(UnsupportedEncoding):
            decode_wav(extensible_twin(plain, guid_tail=bytes(14)))

    def test_non_pcm_sub_format_rejected(self):
        plain = encode_wav(AudioBuffer(samples=np.zeros(8), sample_rate=8000), "pcm16")
        with pytest.raises(UnsupportedEncoding):
            decode_wav(extensible_twin(plain, guid_code=7))  # mu-law

    def test_short_extensible_fmt_is_malformed(self):
        fmt = struct.pack("<HHIIHH", 0xFFFE, 1, 8000, 16000, 2, 16)
        with pytest.raises(MalformedHeader):
            decode_wav(wav_with(fmt, b"\x00\x00"))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_float32_rejected(self, bad):
        samples = np.sin(np.arange(64) / 5.0) * 0.5
        samples[17] = bad
        blob = encode_wav(AudioBuffer(samples=samples, sample_rate=8000), "float32")
        with pytest.raises(NonFiniteSample):
            decode_wav(blob)

    def test_float32_out_of_range_is_clipped(self):
        samples = np.array([1.5, -1.5, 1.0, -1.0, 0.25, -0.0, 0.0, 3e38, -3e38])
        blob = encode_wav(AudioBuffer(samples=samples, sample_rate=8000), "float32")
        decoded = decode_wav(blob).samples
        expected = np.array([1.0, -1.0, 1.0, -1.0, 0.25, -0.0, 0.0, 1.0, -1.0])
        np.testing.assert_array_equal(decoded.view(np.int64), expected.view(np.int64))


def test_pcm16_trailing_odd_byte_dropped():
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    decoded = decode_wav(wav_with(fmt, struct.pack("<hh", 16384, -16384) + b"\x01"))
    np.testing.assert_array_equal(decoded.samples, [0.5, -0.5])


class TestMono:
    def test_mean_of_opposites(self):
        buffer = AudioBuffer(samples=np.array([[1.0, -1.0]]), sample_rate=8000)
        np.testing.assert_array_equal(to_mono(buffer).samples, [0.0])

    def test_mono_identity(self):
        buffer = AudioBuffer(samples=np.array([0.25, 0.5]), sample_rate=8000)
        assert to_mono(buffer) is buffer

    def test_two_channel_mean(self):
        buffer = AudioBuffer(
            samples=np.array([[0.2, 0.6], [0.4, 0.0]]), sample_rate=8000
        )
        np.testing.assert_allclose(to_mono(buffer).samples, [0.4, 0.2])

    @pytest.mark.parametrize("channels", [1, 2, 3, 8, 11])
    def test_bitwise_equal_to_sequential_sum(self, channels):
        rng = np.random.default_rng(channels)
        samples = rng.standard_normal((500, channels)) * 10.0 ** rng.integers(-6, 6, (500, channels))
        samples[:3] = -0.0  # a sum started from +0.0 gives +0.0 here
        expected = []
        for row in samples.tolist():
            total = 0.0
            for value in row:
                total += value
            expected.append(total / channels)
        mono = to_mono(AudioBuffer(samples=samples, sample_rate=8000)).samples
        assert mono.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()
        # and agrees with numpy's mean up to rounding, whatever order numpy sums in
        bound = 4 * channels * np.finfo(float).eps * np.abs(samples).mean(axis=1)
        assert np.all(np.abs(mono - samples.mean(axis=1)) <= bound)

    def test_idempotent_and_length(self):
        rng = np.random.default_rng(0)
        buffer = AudioBuffer(samples=rng.uniform(-1, 1, (100, 3)), sample_rate=8000)
        mono = to_mono(buffer)
        assert mono.n_frames == 100
        assert to_mono(mono) is mono


def interp_oracle(samples, source, target):
    """The resampling rule written as ``np.interp`` over a float sample grid."""
    positions = np.arange(len(samples) * target // source) * (source / target)
    return np.interp(positions, np.arange(len(samples)), samples)


class TestResample:
    @pytest.mark.parametrize("target", [22050, 16000])
    @pytest.mark.parametrize(
        "source", [8000, 11025, 16000, 22050, 32000, 44100, 48000, 88200, 96000]
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 1001, 48001])
    def test_bitwise_equal_to_np_interp(self, source, target, n):
        # whole ratios (44.1 and 88.2 kHz to 22.05, 32, 48 and 96 kHz to 16)
        # take every k-th sample; upsampling reaches the edge-hold tail
        rng = np.random.default_rng(n)
        samples = rng.uniform(-1.0, 1.0, n)
        samples[rng.random(n) < 0.2] = 0.0
        samples[rng.random(n) < 0.2] = -0.0
        samples[:2] = [-0.0, 0.5][:n]  # position 0 is whole and next to a larger sample
        samples[-1] = -0.0
        out = resample(AudioBuffer(samples=samples, sample_rate=source), target)
        assert out.sample_rate == target
        expected = interp_oracle(samples, source, target)
        np.testing.assert_array_equal(out.samples.view(np.int64), expected.view(np.int64))

    def test_empty_input_gives_empty_output(self):
        for source in (44100, 48000, 8000):
            out = resample(AudioBuffer(samples=np.zeros(0), sample_rate=source), 22050)
            assert out.n_frames == 0

    def test_identity_rate(self):
        buffer = AudioBuffer(samples=np.array([0.0, 1.0, 0.0, -1.0]), sample_rate=4)
        assert resample(buffer, 4) is buffer

    def test_linear_interpolation_with_edge_hold(self):
        # interpolant of {0, 1} at t = 0, .25, .5, .75 s; past the last
        # sample the edge value holds
        buffer = AudioBuffer(samples=np.array([0.0, 1.0]), sample_rate=2)
        out = resample(buffer, 4)
        assert out.sample_rate == 4
        np.testing.assert_allclose(out.samples, [0.0, 0.5, 1.0, 1.0])

    def test_constant_stays_constant(self):
        buffer = AudioBuffer(samples=np.full(50, 0.3), sample_rate=1000)
        out = resample(buffer, 22050)
        assert out.n_frames == 50 * 22050 // 1000
        np.testing.assert_allclose(out.samples, 0.3)

    def test_output_length_rule(self):
        buffer = AudioBuffer(samples=np.zeros(44100), sample_rate=44100)
        assert resample(buffer, 22050).n_frames == 22050

    def test_multi_channel_rejected(self):
        buffer = AudioBuffer(samples=np.zeros((8, 2)), sample_rate=4)
        for rate in (2, 4):
            with pytest.raises(ValidationError):
                resample(buffer, rate)


class TestSegments:
    def _buffer(self, seconds, rate=100):
        return AudioBuffer(samples=np.arange(seconds * rate, dtype=np.float64), sample_rate=rate)

    def test_first_60_of_120(self):
        segment = extract_segment(self._buffer(120), 0, 60)
        assert segment.n_frames == 60 * 100
        assert not segment.short
        np.testing.assert_array_equal(segment.samples[:3], [0, 1, 2])

    def test_skip_20_take_60(self):
        segment = extract_segment(self._buffer(120), 20, 60)
        assert segment.samples[0] == 20 * 100
        assert segment.samples[-1] == 80 * 100 - 1

    def test_short_tail_flagged(self):
        segment = extract_segment(self._buffer(30), 20, 60)
        assert segment.short
        assert segment.n_frames == 10 * 100

    def test_start_beyond_end(self):
        with pytest.raises(StartBeyondEnd):
            extract_segment(self._buffer(30), 30, 10)

    def test_bi_sample_default_plan(self):
        segments = bi_sample(self._buffer(90))
        assert len(segments) == 2
        assert segments[0].samples[0] == 0
        assert segments[1].samples[0] == 20 * 100
        assert segments[1].samples[-1] == 80 * 100 - 1

    def test_bi_sample_single_cut(self):
        segments = bi_sample(self._buffer(90), SegmentPlan(((0, 30),)))
        assert len(segments) == 1

    def test_default_plan_two_segments_for_80s(self):
        for seconds in (80, 90, 200):
            assert len(bi_sample(self._buffer(seconds))) == 2

    def test_plan_validation(self):
        with pytest.raises(ValidationError):
            SegmentPlan(())
        with pytest.raises(ValidationError):
            SegmentPlan(((0, 0),))
        with pytest.raises(ValidationError):
            SegmentPlan(((-1, 10),))
        for cut in ((np.nan, 5), (0, np.inf), (np.inf, 5), (0, np.nan), (0, -np.inf)):
            with pytest.raises(ValidationError):
                SegmentPlan((cut,))
            with pytest.raises(ValidationError):
                extract_segment(self._buffer(30), *cut)

    def test_parse_plan(self):
        assert parse_plan("bisample") is DEFAULT_BI_SAMPLE_PLAN
        plan = parse_plan("0:60,20:60")
        assert plan.cuts == ((0.0, 60.0), (20.0, 60.0))
        with pytest.raises(ValidationError):
            parse_plan("nonsense")
