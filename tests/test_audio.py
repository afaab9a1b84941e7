import io
import os
import struct
import tracemalloc
import wave

import numpy as np
import pytest

from raga_moodkit import audio
from raga_moodkit.audio import (
    _BLOCK,
    _FORMAT_EXTENSIBLE,
    _FORMAT_IEEE_FLOAT,
    _FORMAT_PCM,
    _PCM_CODECS,
    _SUBFORMAT_GUID_TAIL,
    _mix_into,
    DEFAULT_BI_SAMPLE_PLAN,
    AudioBuffer,
    SegmentPlan,
    bi_sample,
    decode_wav,
    encode_wav,
    extract_segment,
    parse_plan,
    read_wav,
    resample,
    to_mono,
    write_wav,
)
from raga_moodkit.errors import DataError, ValidationError


def mono_reference(samples: np.ndarray) -> np.ndarray:
    """The mono mix of an ``(n, channels)`` array, written out: per frame the
    channels summed in order from +0.0, then divided by the channel count;
    one channel is returned as it is."""
    if samples.shape[1] == 1:
        return samples[:, 0]
    total = np.zeros(len(samples))
    for column in samples.T:
        total = total + column
    return total / samples.shape[1]


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
        with pytest.raises(DataError, match="not a RIFF/WAVE stream"):
            decode_wav(b"RIFF")

    def test_not_riff(self):
        with pytest.raises(DataError, match="not a RIFF/WAVE stream"):
            decode_wav(b"OggS" + b"\x00" * 64)

    def test_missing_data_chunk(self):
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        blob = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt)) + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        with pytest.raises(DataError, match="missing fmt or data chunk"):
            decode_wav(blob)

    def test_stereo_roundtrip_sample_exact(self):
        # stereo with extreme codes on both channels, via the reference writer
        rng = np.random.default_rng(1)
        left = np.concatenate([[32767, -32768, 1], rng.integers(-32768, 32768, 50)])
        right = np.concatenate([[-32768, -32768, -1], rng.integers(-32768, 32768, 50)])
        interleaved = np.empty(2 * len(left), dtype=np.int64)
        interleaved[0::2] = left
        interleaved[1::2] = right
        buffer = decode_wav(reference_wav_bytes(interleaved, 44100, channels=2))
        assert buffer.sample_rate == 44100 and buffer.samples.shape == (len(left),)
        expected = mono_reference(np.stack([left, right], axis=1) / 32768.0)
        assert expected[:3].tolist() == [-1.52587890625e-05, -1.0, 0.0]
        assert buffer.samples.view(np.int64).tolist() == expected.view(np.int64).tolist()

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
        with pytest.raises(DataError, match="format tag 0x0007 with 8-bit samples"):
            decode_wav(blob)

    def test_truncated_data(self):
        good = reference_wav_bytes([1, 2, 3, 4], 8000)
        with pytest.raises(DataError, match="data chunk declares 8 bytes, 4 available"):
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
        expected = mono_reference(self.int64_reference(frames).reshape(-1, 2))
        # an odd trailing byte is not a sample; a lone trailing sample is not a frame
        for tail in (b"", b"\x5a", b"\x01\x80\xff\xa5"):
            decoded = decode_wav(wav_with(fmt, frames + tail)).samples
            np.testing.assert_array_equal(decoded.view(np.int64), expected.view(np.int64))

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
        with pytest.raises(DataError, match="extensible sub-format GUID"):
            decode_wav(extensible_twin(plain, guid_tail=bytes(14)))

    def test_non_pcm_sub_format_rejected(self):
        plain = encode_wav(AudioBuffer(samples=np.zeros(8), sample_rate=8000), "pcm16")
        with pytest.raises(DataError, match="format tag 0x0007 with 16-bit samples"):
            decode_wav(extensible_twin(plain, guid_code=7))  # mu-law

    def test_short_extensible_fmt_is_malformed(self):
        fmt = struct.pack("<HHIIHH", 0xFFFE, 1, 8000, 16000, 2, 16)
        with pytest.raises(DataError, match="extensible fmt chunk shorter than 40 bytes"):
            decode_wav(wav_with(fmt, b"\x00\x00"))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_float32_rejected(self, bad):
        samples = np.sin(np.arange(64) / 5.0) * 0.5
        samples[17] = bad
        blob = encode_wav(AudioBuffer(samples=samples, sample_rate=8000), "float32")
        with pytest.raises(DataError, match="float32 data holds NaN or infinite samples"):
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


#: (format tag, bits, sample dtype) of every encoding ``decode_wav`` reads
ENCODINGS = {
    "pcm8": (1, 8, "u1"),
    "pcm16": (1, 16, "<i2"),
    "pcm24": (1, 24, None),
    "pcm32": (1, 32, "<i4"),
    "float32": (3, 32, "<f4"),
}


def random_payload(encoding: str, n_frames: int, channels: int, seed: int):
    """(data chunk payload, its samples as an ``(n, channels)`` float64 array),
    the samples widened from the stored codes by each codec's own formula."""
    tag, bits, dtype = ENCODINGS[encoding]
    rng = np.random.default_rng(seed)
    count = n_frames * channels
    if encoding == "float32":
        # magnitudes 40 octaves apart, so the sums round and their order shows
        values = (rng.uniform(-1.5, 1.5, count) * 2.0 ** -rng.integers(0, 40, count)).astype("<f4")
        specials = np.array([-0.0, 0.0, -1.0, 1.0, 3e38, -3e38, 2.0**-126], dtype="<f4")
        at = rng.random(count) < 0.2
        values[at] = rng.choice(specials, int(at.sum()))
        samples = np.clip(values.astype(np.float64), -1.0, 1.0)
        payload = values.tobytes()
    else:
        full_scale = 2 ** (bits - 1)
        codes = rng.integers(-full_scale, full_scale, count)
        codes[: min(count, 4)] = [-full_scale, full_scale - 1, 0, -1][: min(count, 4)]
        if bits == 8:
            payload = (codes + 128).astype(np.uint8).tobytes()  # unsigned, offset by 128
        elif bits == 24:
            payload = b"".join(int(c).to_bytes(3, "little", signed=True) for c in codes)
        else:
            payload = codes.astype(dtype).tobytes()
        samples = codes / float(full_scale)
    return payload, samples.reshape(n_frames, channels)


def fmt_chunk(encoding: str, channels: int, rate: int = 44100) -> bytes:
    tag, bits, _ = ENCODINGS[encoding]
    align = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)


class TestMonoDecode:
    """``decode_wav`` gives the mono mix bit for bit as ``to_mono``'s rule
    mixes the widened samples, across block edges and trailing bytes."""

    @pytest.mark.parametrize("encoding", list(ENCODINGS))
    # past 8 channels numpy's own sums pair their terms, so the order shows
    @pytest.mark.parametrize("channels", [1, 2, 3, 6, 11])
    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_bitwise_equal_to_the_mix_of_the_samples(self, encoding, channels, n):
        payload, samples = random_payload(encoding, n, channels, seed=n * channels)
        expected = mono_reference(samples)
        width = ENCODINGS[encoding][1] // 8
        # a trailing byte, or a frame short of one byte, is not a frame
        for tail in {b"", b"\x7f"[: width * channels - 1], bytes(range(1, width * channels))}:
            decoded = decode_wav(wav_with(fmt_chunk(encoding, channels), payload + tail))
            assert decoded.sample_rate == 44100 and decoded.samples.shape == (n,)
            np.testing.assert_array_equal(decoded.samples.view(np.int64), expected.view(np.int64))
            np.testing.assert_array_equal(
                decoded.samples, to_mono(AudioBuffer(samples=samples, sample_rate=44100)).samples
                if channels > 1 else samples[:, 0])

    def test_payload_shorter_than_a_frame_is_empty(self):
        decoded = decode_wav(wav_with(fmt_chunk("pcm24", 6), bytes(17)))
        assert decoded.samples.shape == (0,)

    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_pcm8_and_pcm32_read_as_stdlib_wave_writes_them(self, width, channels):
        rng = np.random.default_rng(width + channels)
        n = 1000
        if width == 1:
            codes = rng.integers(0, 256, n * channels).astype(np.uint8)
            codes[:2] = [0, 255]
            widened = (codes.astype(np.float64) - 128.0) / 128.0
        else:
            codes = rng.integers(-(2**31), 2**31, n * channels).astype("<i4")
            codes[:2] = [-(2**31), 2**31 - 1]
            widened = codes / 2.0**31
        payload = io.BytesIO()
        with wave.open(payload, "wb") as handle:
            handle.setnchannels(channels)
            handle.setsampwidth(width)
            handle.setframerate(16000)
            handle.writeframes(codes.tobytes())
        decoded = decode_wav(payload.getvalue())
        assert decoded.sample_rate == 16000
        expected = mono_reference(widened.reshape(n, channels))
        np.testing.assert_array_equal(decoded.samples.view(np.int64), expected.view(np.int64))
        assert decoded.samples.min() >= -1.0 and decoded.samples.max() < 1.0


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
        with pytest.raises(DataError, match="segment start 30s is beyond the 30.000s buffer"):
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

    def test_huge_finite_cut(self):
        # start and duration times the rate overflow to inf; the cut does not
        buffer = self._buffer(30, rate=22050)
        with pytest.raises(DataError, match="segment start 1e[+]305s is beyond"):
            extract_segment(buffer, 1e305, 1)
        tail = extract_segment(buffer, 0, 1e305)
        same = extract_segment(buffer, 0, 1000)
        assert tail.short and same.short
        np.testing.assert_array_equal(tail.samples, same.samples)

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


# --- block kernels against their whole-signal forms ---------------------------------

def encode_wav_whole(buffer: AudioBuffer, encoding: str = "pcm16") -> bytes:
    """``encode_wav`` as it stood before it worked in blocks, copied verbatim:
    every step spans the whole signal."""
    samples = buffer.samples if buffer.samples.ndim == 2 else buffer.samples.reshape(-1, 1)
    channels = samples.shape[1]
    flat = samples.reshape(-1)

    if encoding == "pcm16":
        format_tag, bits = _FORMAT_PCM, 16
        quantized = np.clip(np.rint(flat * 2.0**15), -(2**15), 2**15 - 1)
        body = quantized.astype("<i2").tobytes()
    elif encoding == "pcm24":
        format_tag, bits = _FORMAT_PCM, 24
        # the low three bytes of a little-endian int32 are its 24-bit two's complement
        scaled = flat * 2.0**23
        np.clip(np.rint(scaled, out=scaled), -(2**23), 2**23 - 1, out=scaled)
        body = scaled.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    elif encoding == "float32":
        format_tag, bits = _FORMAT_IEEE_FLOAT, 32
        body = flat.astype("<f4").tobytes()
    else:
        raise ValidationError(f"unknown encoding {encoding!r}")

    block_align = channels * bits // 8
    byte_rate = buffer.sample_rate * block_align
    fmt = struct.pack(
        "<HHIIHH", format_tag, channels, buffer.sample_rate, byte_rate, block_align, bits
    )
    chunks = b"".join(
        [
            b"fmt ",
            struct.pack("<I", len(fmt)),
            fmt,
            b"data",
            struct.pack("<I", len(body)),
            body,
            b"\x00" if len(body) & 1 else b"",
        ]
    )
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def resample_whole(buffer: AudioBuffer, target_rate: int) -> AudioBuffer:
    """``resample`` as it stood before it worked in blocks, copied verbatim:
    positions, indexes and deltas span the whole output."""
    if target_rate <= 0:
        raise ValidationError(f"target_rate must be positive, got {target_rate}")
    if buffer.samples.ndim != 1:
        raise ValidationError("resample expects mono audio; call to_mono first")
    if target_rate == buffer.sample_rate:
        return buffer
    x = buffer.samples
    n_in = len(x)
    n_out = n_in * target_rate // buffer.sample_rate
    step, remainder = divmod(buffer.sample_rate, target_rate)
    if remainder == 0:
        samples = x[: n_out * step : step]
    else:
        positions = np.arange(n_out, dtype=np.float64)
        positions *= buffer.sample_rate / target_rate
        head = int(np.searchsorted(positions, n_in - 1))
        j = positions[:head].astype(np.intp)
        frac = positions[:head]
        frac -= j
        samples = np.empty(n_out)
        samples[head:] = x[-1:]
        lo = np.take(x, j, out=samples[:head])
        delta = x[1:][j] - lo
        delta *= frac
        # a whole position keeps x[j] as it is, sign of zero included
        np.add(lo, delta, out=lo, where=frac != 0)
    return AudioBuffer(samples=samples, sample_rate=target_rate, short=buffer.short)


#: Lengths around the block edges: one sample, a block less one, one block,
#: a block and one, and three blocks and a partial one.
BLOCK_EDGE_LENGTHS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)


def awkward_signal(n: int, seed: int) -> np.ndarray:
    """Uniform samples past full scale, with zeros of both signs, the clipping
    edges and the halfway points of the PCM16 and PCM24 grids spread in."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.3, 1.3, n)
    specials = np.array([
        -0.0, 0.0, -1.0, 1.0, -2.0, 2.0, 1.0 - 2.0**-16, -1.0 + 2.0**-16, -(2.0**-24), 2.0**-24,
        0.5 * 2.0**-15, -0.5 * 2.0**-15, 1.5 * 2.0**-15, 0.5 * 2.0**-23, -2.5 * 2.0**-23,
    ])
    at = rng.random(n) < 0.3
    x[at] = rng.choice(specials, int(at.sum()))
    x[0] = -0.0
    return x


def traced_peak(call):
    """(result, bytes at the traced allocation peak) of ``call()``."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MB = 1 << 20


class TestBlockKernels:
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("n", BLOCK_EDGE_LENGTHS)
    def test_encode_matches_whole_signal_form(self, n, channels):
        samples = awkward_signal(n * channels, n).reshape(n, channels)
        if channels == 1:
            samples = samples[:, 0]
        for rate in (8000, 44100, 48000):
            buffer = AudioBuffer(samples=samples, sample_rate=rate)
            for encoding in ("pcm16", "pcm24", "float32"):
                assert encode_wav(buffer, encoding) == encode_wav_whole(buffer, encoding)

    @pytest.mark.parametrize("n", (0, 2) + BLOCK_EDGE_LENGTHS)
    def test_resample_matches_whole_signal_form(self, n):
        samples = awkward_signal(n, n) if n else np.zeros(0)
        for source, target in [(48000, 22050), (44100, 22050), (8000, 22050), (96000, 22050),
                               (44100, 16000), (22050, 48000), (11025, 22050)]:
            buffer = AudioBuffer(samples=samples, sample_rate=source)
            ours = resample(buffer, target).samples
            whole = resample_whole(buffer, target).samples
            assert ours.shape == whole.shape
            np.testing.assert_array_equal(ours.view(np.int64), whole.view(np.int64))

    @pytest.mark.parametrize("encoding, bits", [("pcm16", 16), ("pcm24", 24), ("float32", 32)])
    def test_encode_holds_little_more_than_its_stream(self, encoding, bits):
        # 20 s of 44.1 kHz stereo: the stream is quantized into in place, so
        # one block's temporaries come on top of it
        samples = awkward_signal(2 * 882000, 1).reshape(-1, 2)
        buffer = AudioBuffer(samples=samples, sample_rate=44100)
        data, peak = traced_peak(lambda: encode_wav(buffer, encoding))
        assert len(data) == 44 + samples.size * bits // 8
        assert peak <= len(data) + 4 * MB, f"{peak / MB:.1f} MB for a {len(data) / MB:.1f} MB stream"

    def test_resample_holds_no_more_than_its_output(self):
        samples = awkward_signal(48000 * 60, 2)
        buffer = AudioBuffer(samples=samples, sample_rate=48000)
        out, peak = traced_peak(lambda: resample(buffer, 22050))
        assert peak <= out.samples.nbytes + 4 * MB, f"{peak / MB:.1f} MB for {out.samples.nbytes / MB:.1f} MB"

    def test_decode_holds_little_more_than_its_mono_output(self):
        # 20 s of 44.1 kHz stereo PCM24: the mix is written block by block
        # into its output, so no stereo array of the whole signal is built
        samples = awkward_signal(2 * 882000, 3).reshape(-1, 2)
        data = bytes(encode_wav(AudioBuffer(samples=samples, sample_rate=44100), "pcm24"))
        out, peak = traced_peak(lambda: decode_wav(data))
        assert out.samples.shape == (882000,)
        assert peak <= out.samples.nbytes + 4 * MB, f"{peak / MB:.1f} MB for {out.samples.nbytes / MB:.1f} MB"


# --- the streaming decoder against the whole-stream decoder -------------------------

def decode_wav_whole(data: bytes) -> AudioBuffer:
    """``decode_wav`` as it stood before it streamed, copied verbatim but for
    the one ``DataError`` class it now raises: the whole stream is one
    ``bytes`` object, and the codes are views into it."""
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise DataError("not a RIFF/WAVE stream")

    fmt = None
    data_span = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset : offset + 4]
        (size,) = struct.unpack_from("<I", data, offset + 4)
        body_start = offset + 8
        if chunk_id == b"fmt ":
            if size < 16 or body_start + 16 > len(data):
                raise DataError("fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
            subformat = None
            if fmt[0] == _FORMAT_EXTENSIBLE:
                if size < 40 or body_start + 40 > len(data):
                    raise DataError("extensible fmt chunk shorter than 40 bytes")
                subformat = data[body_start + 24 : body_start + 40]
        elif chunk_id == b"data":
            if body_start + size > len(data):
                raise DataError(
                    f"data chunk declares {size} bytes, {len(data) - body_start} available"
                )
            data_span = (body_start, size)
        offset = body_start + size + (size & 1)

    if fmt is None or data_span is None:
        raise DataError("missing fmt or data chunk")

    format_tag, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if channels < 1 or sample_rate <= 0:
        raise DataError(f"invalid fmt fields: channels={channels} rate={sample_rate}")
    if subformat is not None:
        if subformat[2:] != _SUBFORMAT_GUID_TAIL:
            raise DataError(f"extensible sub-format GUID {subformat.hex()}")
        (format_tag,) = struct.unpack_from("<H", subformat)

    if format_tag == _FORMAT_PCM and bits in _PCM_CODECS:
        dtype, code_offset, scale = _PCM_CODECS[bits]
    elif format_tag == _FORMAT_IEEE_FLOAT and bits == 32:
        dtype, code_offset, scale = "<f4", 0, None
    else:
        raise DataError(f"format tag {format_tag:#06x} with {bits}-bit samples")

    start, size = data_span
    width = bits // 8
    n_frames = size // (width * channels)
    if bits == 24:
        # Behind the byte before it, sample i is the top of the little-endian
        # int32 at byte 3*i - 1; ">> 8" drops that byte and sign-extends, exactly.
        codes = np.ndarray((n_frames, channels), dtype, data, start - 1, (3 * channels, 3))
    else:
        codes = np.frombuffer(data, dtype, n_frames * channels, start).reshape(n_frames, channels)

    mono = np.empty(n_frames)
    for first in range(0, n_frames, _BLOCK):
        block = codes[first : first + _BLOCK]
        out = mono[first : first + _BLOCK]
        if scale is None:
            if not np.isfinite(block).all():
                raise DataError("float32 data holds NaN or infinite samples")
            wide = np.clip(block, -1.0, 1.0, dtype=np.float64)
        else:
            wide = (block >> 8 if bits == 24 else block).astype(np.float64)
            if code_offset:
                wide -= code_offset
        if channels == 1:
            out[:] = wide[:, 0]
        else:
            _mix_into(wide, out)
        if scale is not None:
            # codes are whole numbers, so scaling the mean by a power of two
            # rounds it exactly as scaling every sample first would
            out *= scale
    return AudioBuffer(samples=mono, sample_rate=sample_rate)


def layout_stream(encoding: str, channels: int, payload: bytes, layout: str) -> bytes:
    """A RIFF stream of ``payload`` under a plain or an extensible fmt chunk,
    or with an odd-sized chunk, and its pad byte, between fmt and data."""
    if layout == "extensible":
        tag, bits, _ = ENCODINGS[encoding]
        align = channels * bits // 8
        fmt = struct.pack("<HHIIHHHHI", _FORMAT_EXTENSIBLE, channels, 44100, 44100 * align, align, bits,
                          22, bits, (1 << channels) - 1) + struct.pack("<H", tag) + _SUBFORMAT_GUID_TAIL
        return wav_with(fmt, payload)
    stream = wav_with(fmt_chunk(encoding, channels), payload)
    if layout == "odd_chunk":
        at = stream.index(b"data")
        stream = stream[:at] + b"LIST" + struct.pack("<I", 3) + b"abc\x00" + stream[at:]
        stream = stream[:4] + struct.pack("<I", len(stream) - 8) + stream[8:]
    return stream


class TestStreamingDecode:
    """``read_wav`` and ``decode_wav`` read one reused block buffer and give
    every bit the whole-stream decoder gives."""

    @pytest.mark.parametrize("layout", ["plain", "extensible", "odd_chunk"])
    @pytest.mark.parametrize("encoding", list(ENCODINGS))
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_bitwise_equal_to_the_whole_stream_decoder(self, tmp_path, layout, encoding, channels):
        for n in (0, 1, _BLOCK, 2 * _BLOCK + 5):
            payload, _ = random_payload(encoding, n, channels, seed=n + channels)
            # a trailing byte: a whole PCM8 mono frame, a dropped partial frame otherwise
            stream = layout_stream(encoding, channels, payload + b"\x01", layout)
            path = tmp_path / f"{n}.wav"
            path.write_bytes(stream)
            expected = decode_wav_whole(stream)
            for decoded in (decode_wav(stream), read_wav(path)):
                assert decoded.sample_rate == expected.sample_rate == 44100
                assert decoded.samples.shape == expected.samples.shape
                np.testing.assert_array_equal(decoded.samples.view(np.int64), expected.samples.view(np.int64))

    def test_empty_file_is_malformed(self, tmp_path):
        (tmp_path / "empty.wav").write_bytes(b"")
        with pytest.raises(DataError, match="not a RIFF/WAVE stream"):
            read_wav(tmp_path / "empty.wav")

    def test_data_chunk_longer_than_the_file(self, tmp_path):
        payload, _ = random_payload("pcm16", 100, 2, seed=1)
        (tmp_path / "cut.wav").write_bytes(wav_with(fmt_chunk("pcm16", 2), payload)[:-4])
        with pytest.raises(DataError, match="declares 400 bytes, 396 available"):
            read_wav(tmp_path / "cut.wav")

    def test_file_cut_short_while_it_is_read(self, tmp_path, monkeypatch):
        # the headers promise three blocks; the file loses all but one block and
        # ten bytes after the headers are read, so the second read comes back
        # short and the decoder raises rather than decode the block left behind
        payload, _ = random_payload("pcm16", 3 * _BLOCK, 2, seed=2)
        path = tmp_path / "shrinks.wav"
        path.write_bytes(wav_with(fmt_chunk("pcm16", 2), payload))
        reads = []

        class ShrinksWhenRead(io.BufferedReader):
            def readinto(self, buffer):
                os.truncate(path, 44 + 4 * _BLOCK + 10)
                reads.append(super().readinto(buffer))
                return reads[-1]

        monkeypatch.setattr(audio, "open", lambda name, mode: ShrinksWhenRead(io.FileIO(name, mode)),
                            raising=False)
        with pytest.raises(DataError, match="stream ended inside the data chunk"):
            read_wav(path)
        assert reads == [4 * _BLOCK, 10]

    def test_read_holds_little_more_than_its_mono_output(self, tmp_path):
        # 20 s of 44.1 kHz stereo PCM24: a 5.3 MB file is read one block at a
        # time, so it is never held whole next to the 7.1 MB mono output
        samples = awkward_signal(2 * 882000, 4).reshape(-1, 2)
        path = tmp_path / "long.wav"
        write_wav(path, AudioBuffer(samples=samples, sample_rate=44100), "pcm24")
        out, peak = traced_peak(lambda: read_wav(path))
        assert out.samples.shape == (882000,)
        assert peak <= out.samples.nbytes + 2 * MB, f"{peak / MB:.1f} MB for {out.samples.nbytes / MB:.1f} MB"
