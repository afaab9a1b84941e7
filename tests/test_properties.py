"""Property tests of the WAV codec: whatever bytes ``decode_wav`` is given, it
returns mono audio or raises a ``MoodkitError``, and an encoded mono signal
decodes to its quantized samples."""
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from raga_moodkit.audio import AudioBuffer, decode_wav, encode_wav
from raga_moodkit.errors import MoodkitError

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: (offset, struct format) of each field of the 44-byte header ``encode_wav`` writes
HEADER_FIELDS = {
    "riff_size": (4, "<I"),
    "fmt_size": (16, "<I"),
    "format_tag": (20, "<H"),
    "channels": (22, "<H"),
    "sample_rate": (24, "<I"),
    "bits": (34, "<H"),
    "data_size": (40, "<I"),
}


def decodes_or_fails_typed(data: bytes) -> None:
    try:
        buffer = decode_wav(data)
    except MoodkitError:
        return
    samples = buffer.samples
    assert samples.ndim == 1 and samples.dtype == np.float64
    assert buffer.sample_rate > 0
    assert np.all(np.abs(samples) <= 1.0)


@PROPERTY
@given(st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=300).map(lambda body: b"RIFF" + body[:4] + b"WAVE" + body[4:]),
))
def test_arbitrary_bytes_decode_or_raise_a_moodkit_error(data):
    decodes_or_fails_typed(data)


@st.composite
def mutated_streams(draw):
    channels = draw(st.integers(1, 3))
    n = draw(st.integers(0, 40))
    encoding = draw(st.sampled_from(["pcm16", "pcm24", "float32"]))
    samples = np.linspace(-1.0, 1.0, n * channels).reshape(n, channels)
    stream = bytearray(encode_wav(AudioBuffer(samples=samples, sample_rate=8000), encoding))
    for name in draw(st.lists(st.sampled_from(sorted(HEADER_FIELDS)), max_size=3)):
        offset, fmt = HEADER_FIELDS[name]
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        value = draw(st.one_of(st.integers(0, top), st.sampled_from([0, 1, 3, 8, 24, 32, 0xFFFE, top])))
        struct.pack_into(fmt, stream, offset, value)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(stream) - 1))
        stream[at] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(stream)))
    return bytes(stream[:cut] if draw(st.booleans()) else stream)


@PROPERTY
@given(mutated_streams())
def test_mutated_headers_decode_or_raise_a_moodkit_error(data):
    decodes_or_fails_typed(data)


def test_huge_channel_count_and_data_past_the_end_are_typed_errors_or_empty():
    stream = bytearray(encode_wav(AudioBuffer(samples=np.zeros(10), sample_rate=8000)))
    struct.pack_into("<H", stream, 22, 65535)
    assert decode_wav(bytes(stream)).samples.shape == (0,)
    struct.pack_into("<I", stream, 40, 2**32 - 1)
    decodes_or_fails_typed(bytes(stream))


@PROPERTY
@given(
    hnp.arrays(np.float64, st.integers(0, 200), elements=st.floats(-1.0, 1.0)),
    st.sampled_from(["pcm16", "pcm24", "float32"]),
    st.integers(1, 192000),
)
def test_encoded_mono_decodes_to_its_quantized_samples(samples, encoding, rate):
    decoded = decode_wav(encode_wav(AudioBuffer(samples=samples, sample_rate=rate), encoding))
    assert decoded.sample_rate == rate
    if encoding == "float32":
        expected = samples.astype(np.float32).astype(np.float64)
    else:
        full_scale = 2.0 ** (15 if encoding == "pcm16" else 23)
        codes = np.clip(np.rint(samples * full_scale), -full_scale, full_scale - 1).astype(np.int64)
        expected = codes / full_scale
    np.testing.assert_array_equal(decoded.samples.view(np.int64), expected.view(np.int64))
