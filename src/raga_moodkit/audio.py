"""WAV ingestion and segment cutting.

Decodes RIFF/WAVE files (PCM 16-bit, PCM 24-bit, IEEE float32, under a
plain or a WAVE_FORMAT_EXTENSIBLE header), folds
channels to mono, resamples to the canonical internal rate, and cuts the
segment plans used throughout the pipeline, including the two-segment
augmentation plan that doubles a corpus.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    MalformedHeader,
    NonFiniteSample,
    StartBeyondEnd,
    TruncatedData,
    UnsupportedEncoding,
    ValidationError,
)

#: Canonical internal sample rate; all feature math downstream assumes it.
CANONICAL_RATE = 22050

_FORMAT_PCM = 0x0001
_FORMAT_IEEE_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE
#: Bytes 2..15 of every standard KSDATAFORMAT_SUBTYPE GUID
#: {000000XX-0000-0010-8000-00AA00389B71}; bytes 0..1 hold the format code.
_SUBFORMAT_GUID_TAIL = bytes.fromhex("0000" "0000" "1000" "8000" "00aa00389b71")


@dataclass(frozen=True)
class AudioBuffer:
    """In-memory audio: float64 samples in [-1, 1] plus the sample rate.

    ``samples`` has shape ``(n,)`` for mono or ``(n, n_channels)`` otherwise.
    ``short`` marks segments that were truncated by the end of their source.
    """

    samples: np.ndarray
    sample_rate: int
    short: bool = False

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValidationError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def n_frames(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.sample_rate


@dataclass(frozen=True)
class SegmentPlan:
    """Ordered (start_s, duration_s) cuts taken from every file."""

    cuts: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple((float(s), float(d)) for s, d in self.cuts))
        if not self.cuts:
            raise ValidationError("segment plan must contain at least one cut")
        for start, duration in self.cuts:
            if not 0 <= start < np.inf:
                raise ValidationError(f"cut start must be finite and >= 0, got {start}")
            if not 0 < duration < np.inf:
                raise ValidationError(f"cut duration must be finite and > 0, got {duration}")

    def describe(self) -> str:
        if len(self.cuts) == 1:
            start, dur = self.cuts[0]
            return f"{start:g}s-{start + dur:g}s"
        spans = " and ".join(f"{s:g}s-{s + d:g}s" for s, d in self.cuts)
        return f"{len(self.cuts)} Segments - {spans}"


#: Two overlapping one-minute cuts; doubles the row count of a corpus.
DEFAULT_BI_SAMPLE_PLAN = SegmentPlan(((0.0, 60.0), (20.0, 60.0)))

PLAN_PRESETS = {
    "first60": SegmentPlan(((0.0, 60.0),)),
    "first90": SegmentPlan(((0.0, 90.0),)),
    "skip20-60": SegmentPlan(((20.0, 60.0),)),
    "skip20-40": SegmentPlan(((20.0, 40.0),)),
    "bisample": DEFAULT_BI_SAMPLE_PLAN,
}


def parse_plan(text: str) -> SegmentPlan:
    """Resolve a preset name or a ``start:dur,start:dur`` cut list."""
    if text in PLAN_PRESETS:
        return PLAN_PRESETS[text]
    cuts = []
    try:
        for part in text.split(","):
            start, duration = part.split(":")
            cuts.append((float(start), float(duration)))
    except ValueError as exc:
        raise ValidationError(
            f"bad segment plan {text!r}; expected a preset "
            f"({', '.join(sorted(PLAN_PRESETS))}) or 'start:dur,start:dur'"
        ) from exc
    return SegmentPlan(tuple(cuts))


def _decode_pcm16(payload) -> np.ndarray:
    return np.frombuffer(payload, dtype="<i2", count=len(payload) // 2).astype(np.float64) / 2.0**15


def _decode_pcm24(payload) -> np.ndarray:
    # Behind one pad byte, sample i is the top of the little-endian int32 at
    # byte 3*i; ">> 8" drops the byte below it and sign-extends, exactly.
    n = len(payload) // 3
    padded = np.empty(3 * n + 1, dtype=np.uint8)
    padded[1:] = np.frombuffer(payload, dtype=np.uint8, count=3 * n)
    words = np.ndarray((n,), dtype="<i4", buffer=padded, strides=(3,))
    return (words >> 8) * 2.0**-23


def _decode_float32(payload) -> np.ndarray:
    values = np.frombuffer(payload, dtype="<f4", count=len(payload) // 4)
    if not np.isfinite(values).all():
        raise NonFiniteSample("float32 data holds NaN or infinite samples")
    return np.clip(values, -1.0, 1.0, dtype=np.float64)


def decode_wav(data: bytes) -> AudioBuffer:
    """Decode a RIFF/WAVE byte stream.

    Integer PCM is scaled to [-1, 1] by dividing by 2**(bits-1); PCM24 is
    read as int32 words at a 3-byte stride, shifted right by 8 bits. Float
    samples are clipped into the same range as they are widened to float64.
    Multi-channel audio stays an ``(n, channels)`` array for ``to_mono``.
    A WAVE_FORMAT_EXTENSIBLE header is read through its sub-format GUID.

    Raises:
        MalformedHeader: not a RIFF/WAVE stream or required chunks missing.
        UnsupportedEncoding: codec other than PCM16/PCM24/float32.
        TruncatedData: a chunk declares more bytes than are present.
        NonFiniteSample: float32 data holds NaN or infinity.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedHeader("not a RIFF/WAVE stream")

    fmt = None
    payload = None
    view = memoryview(data)
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset : offset + 4]
        (size,) = struct.unpack_from("<I", data, offset + 4)
        body_start = offset + 8
        if chunk_id == b"fmt ":
            if size < 16 or body_start + 16 > len(data):
                raise MalformedHeader("fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
            subformat = None
            if fmt[0] == _FORMAT_EXTENSIBLE:
                if size < 40 or body_start + 40 > len(data):
                    raise MalformedHeader("extensible fmt chunk shorter than 40 bytes")
                subformat = data[body_start + 24 : body_start + 40]
        elif chunk_id == b"data":
            if body_start + size > len(data):
                raise TruncatedData(
                    f"data chunk declares {size} bytes, {len(data) - body_start} available"
                )
            payload = view[body_start : body_start + size]
        offset = body_start + size + (size & 1)

    if fmt is None or payload is None:
        raise MalformedHeader("missing fmt or data chunk")

    format_tag, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if channels < 1 or sample_rate <= 0:
        raise MalformedHeader(f"invalid fmt fields: channels={channels} rate={sample_rate}")
    if subformat is not None:
        if subformat[2:] != _SUBFORMAT_GUID_TAIL:
            raise UnsupportedEncoding(f"extensible sub-format GUID {subformat.hex()}")
        (format_tag,) = struct.unpack_from("<H", subformat)

    if format_tag == _FORMAT_PCM and bits == 16:
        samples = _decode_pcm16(payload)
    elif format_tag == _FORMAT_PCM and bits == 24:
        samples = _decode_pcm24(payload)
    elif format_tag == _FORMAT_IEEE_FLOAT and bits == 32:
        samples = _decode_float32(payload)
    else:
        raise UnsupportedEncoding(f"format tag {format_tag:#06x} with {bits}-bit samples")

    if channels > 1:
        samples = samples[: len(samples) - len(samples) % channels]
        samples = samples.reshape(-1, channels)
    return AudioBuffer(samples=samples, sample_rate=sample_rate)


def encode_wav(buffer: AudioBuffer, encoding: str = "pcm16") -> bytes:
    """Serialize a buffer as RIFF/WAVE (``pcm16``, ``pcm24`` or ``float32``)."""
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


def read_wav(path) -> AudioBuffer:
    return decode_wav(Path(path).read_bytes())


def write_wav(path, buffer: AudioBuffer, encoding: str = "pcm16") -> None:
    Path(path).write_bytes(encode_wav(buffer, encoding))


def to_mono(buffer: AudioBuffer) -> AudioBuffer:
    """Per-frame arithmetic mean of channels; mono input is returned unchanged.

    Each frame is the sequential sum of its channels in order, starting from
    +0.0, divided by the channel count.
    """
    if buffer.samples.ndim == 1:
        return buffer
    columns = iter(buffer.samples.T)
    mixed = next(columns) + next(columns, 0.0)
    for column in columns:
        mixed += column
    mixed += 0.0  # turns -0.0 into +0.0, as a sum started from +0.0 gives
    mixed /= buffer.n_channels
    return AudioBuffer(
        samples=mixed,
        sample_rate=buffer.sample_rate,
        short=buffer.short,
    )


def resample(buffer: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Linear-interpolation resampling of mono audio with edge hold past the
    last sample.

    The output has ``floor(n * target / source)`` frames. Frame ``i`` sits at
    source position ``p = i * (source / target)``. With ``j = floor(p)`` it is
    ``x[j] + (x[j+1] - x[j]) * (p - j)``, or ``x[j]`` when ``p`` is whole, and
    ``x[-1]`` from ``p >= n - 1`` on: bit for bit ``np.interp(p, arange(n), x)``.
    A whole rate ratio gives a strided view of the input; equal rates return
    the input itself.
    """
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


def extract_segment(buffer: AudioBuffer, start_s: float, duration_s: float) -> AudioBuffer:
    """Cut ``[start_s, start_s + duration_s)`` in seconds.

    A file ending early yields the available tail with ``short=True``.

    Raises:
        StartBeyondEnd: ``start_s`` is at or past the end of the buffer.
    """
    if not 0 <= start_s < np.inf:
        raise ValidationError(f"start_s must be finite and >= 0, got {start_s}")
    if not 0 < duration_s < np.inf:
        raise ValidationError(f"duration_s must be finite and > 0, got {duration_s}")
    start = int(round(start_s * buffer.sample_rate))
    if start >= buffer.n_frames:
        raise StartBeyondEnd(
            f"segment start {start_s:g}s is beyond the {buffer.duration_s:.3f}s buffer"
        )
    stop = start + int(round(duration_s * buffer.sample_rate))
    short = stop > buffer.n_frames
    return AudioBuffer(
        samples=buffer.samples[start : min(stop, buffer.n_frames)],
        sample_rate=buffer.sample_rate,
        short=short,
    )


def bi_sample(buffer: AudioBuffer, plan: SegmentPlan = DEFAULT_BI_SAMPLE_PLAN) -> list[AudioBuffer]:
    """One segment per cut of the plan, in plan order."""
    return [extract_segment(buffer, start, duration) for start, duration in plan.cuts]
