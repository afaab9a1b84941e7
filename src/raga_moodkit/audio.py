"""WAV ingestion and segment cutting.

Decodes RIFF/WAVE files (PCM 8, 16, 24 or 32-bit, IEEE float32, under a
plain or a WAVE_FORMAT_EXTENSIBLE header) straight to their mono mix,
resamples to the canonical internal rate, and cuts the segment plans used
throughout the pipeline, including the two-segment augmentation plan that
doubles a corpus.
"""
from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .base import CheckedFields, FiniteNonNegativeFloat, FinitePositiveFloat
from .errors import DataError, ValidationError

#: Canonical internal sample rate; all feature math downstream assumes it.
CANONICAL_RATE = 22050

_FORMAT_PCM = 0x0001
_FORMAT_IEEE_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE
#: Bytes 2..15 of every standard KSDATAFORMAT_SUBTYPE GUID
#: {000000XX-0000-0010-8000-00AA00389B71}; bytes 0..1 hold the format code.
_SUBFORMAT_GUID_TAIL = bytes.fromhex("0000" "0000" "1000" "8000" "00aa00389b71")

#: Samples per block in ``encode_wav``, ``resample`` and ``synth.synth_signal``,
#: and frames per block in ``decode_wav``: their temporaries span one block,
#: not the whole signal. Results do not depend on it.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class AudioBuffer:
    """In-memory audio: float64 samples in [-1, 1] plus the sample rate.

    ``samples`` has shape ``(n,)`` for mono or ``(n, channels)`` otherwise.
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
    def duration_s(self) -> float:
        return self.n_frames / self.sample_rate


@dataclass(frozen=True)
class SegmentPlan(CheckedFields):
    """Ordered (start_s, duration_s) cuts taken from every file."""

    cuts: Annotated[
        tuple[tuple[FiniteNonNegativeFloat, FinitePositiveFloat], ...],
        ("non-empty", lambda cuts: len(cuts) > 0),
    ]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "cuts", tuple((float(s), float(d)) for s, d in self.cuts))

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


#: (sample dtype, code offset, scale to [-1, 1]) of each integer PCM width;
#: PCM24 is read as int32 words, see ``decode_wav``.
_PCM_CODECS = {
    8: ("u1", 128, 2.0**-7),
    16: ("<i2", 0, 2.0**-15),
    24: ("<i4", 0, 2.0**-23),
    32: ("<i4", 0, 2.0**-31),
}


def decode_wav(data: bytes) -> AudioBuffer:
    """Decode a RIFF/WAVE byte stream to its mono mix at the file's own rate.

    Integer PCM is scaled to [-1, 1] by dividing by 2**(bits-1), after PCM8's
    unsigned codes are offset by 128. PCM24 is read as int32 words at a
    3-byte stride, shifted right by 8 bits. Float samples are clipped into
    the same range as they are widened to float64. A WAVE_FORMAT_EXTENSIBLE
    header is read through its sub-format GUID.

    Channels are mixed by ``to_mono``'s rule, ``_BLOCK`` frames at a time
    into the one output array, so no multi-channel array of the whole signal
    is built. Integer codes are mixed before they are scaled; that keeps
    every bit of mixing the scaled samples. A trailing partial frame is
    dropped. ``read_wav`` decodes a file by the same code, from the file.

    Raises:
        DataError: not a RIFF/WAVE stream or required chunks missing, a
            codec other than PCM8/16/24/32 or float32, a chunk declaring
            more bytes than are present, or float32 data holding NaN or
            infinity.
    """
    return _decode_stream(io.BytesIO(data))


def _decode_stream(stream) -> AudioBuffer:
    """``decode_wav`` of a seekable binary stream, read into one reused block buffer."""
    head = stream.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise DataError("not a RIFF/WAVE stream")

    fmt = None
    data_span = None
    offset = 12
    while len(header := stream.read(8)) == 8:
        chunk_id, size = struct.unpack("<4sI", header)
        body_start = offset + 8
        if chunk_id == b"fmt ":
            body = stream.read(40)
            if size < 16 or len(body) < 16:
                raise DataError("fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body)
            subformat = None
            if fmt[0] == _FORMAT_EXTENSIBLE:
                if size < 40 or len(body) < 40:
                    raise DataError("extensible fmt chunk shorter than 40 bytes")
                subformat = body[24:40]
        elif chunk_id == b"data":
            available = stream.seek(0, io.SEEK_END) - body_start
            if size > available:
                raise DataError(f"data chunk declares {size} bytes, {available} available")
            data_span = (body_start, size)
        offset = stream.seek(body_start + size + (size & 1))

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
    frame_bytes = width * channels
    n_frames = size // frame_bytes
    # PCM24 samples sit behind one pad byte, so sample i is the top of the little-endian
    # int32 at byte 3*i; ">> 8" drops the byte below it and sign-extends, exactly.
    pad = 1 if bits == 24 else 0
    buffer = np.empty(pad + min(_BLOCK, n_frames) * frame_bytes, np.uint8)
    codes = np.ndarray((min(_BLOCK, n_frames), channels), dtype, buffer, 0, (frame_bytes, width))

    stream.seek(start)
    mono = np.empty(n_frames)
    for first in range(0, n_frames, _BLOCK):
        count = min(_BLOCK, n_frames - first)
        if stream.readinto(memoryview(buffer)[pad : pad + count * frame_bytes]) != count * frame_bytes:
            raise DataError(f"stream ended inside the data chunk, {size} bytes declared")
        block = codes[:count]
        out = mono[first : first + count]
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


def encode_wav(buffer: AudioBuffer, encoding: str = "pcm16") -> bytearray:
    """Serialize a buffer as RIFF/WAVE (``pcm16``, ``pcm24`` or ``float32``).

    The stream is one allocation: samples are quantized one block at a time
    straight into the returned buffer, behind its 44-byte header. A separate
    body joined onto the header would leave a body-sized hole in the heap
    when freed.
    """
    samples = buffer.samples if buffer.samples.ndim == 2 else buffer.samples.reshape(-1, 1)
    channels = samples.shape[1]
    flat = samples.reshape(-1)

    if encoding == "pcm16":
        format_tag, bits = _FORMAT_PCM, 16
    elif encoding == "pcm24":
        format_tag, bits = _FORMAT_PCM, 24
    elif encoding == "float32":
        format_tag, bits = _FORMAT_IEEE_FLOAT, 32
    else:
        raise ValidationError(f"unknown encoding {encoding!r}")

    block_align = channels * bits // 8
    size = len(flat) * bits // 8
    stream = bytearray(44 + size + (size & 1))
    stream[:44] = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + size + (size & 1), b"WAVE", b"fmt ", 16, format_tag,
        channels, buffer.sample_rate, buffer.sample_rate * block_align, block_align, bits, b"data", size,
    )
    if bits == 24:
        body = np.frombuffer(stream, np.uint8, size, 44).reshape(-1, 3)
    else:
        body = np.frombuffer(stream, "<i2" if bits == 16 else "<f4", len(flat), 44)
    full_scale = 2.0 ** (bits - 1)
    for start in range(0, len(flat), _BLOCK):
        block = flat[start : start + _BLOCK]
        if format_tag == _FORMAT_PCM:
            block = block * full_scale
            np.clip(np.rint(block, out=block), -full_scale, full_scale - 1, out=block)
        if bits == 24:
            # the low three bytes of a little-endian int32 are its 24-bit two's complement
            block = block.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3]
        body[start : start + _BLOCK] = block
    return stream


def read_wav(path) -> AudioBuffer:
    """``decode_wav`` of a file, read block by block rather than whole."""
    with open(path, "rb") as stream:
        return _decode_stream(stream)


def write_wav(path, buffer: AudioBuffer, encoding: str = "pcm16") -> None:
    Path(path).write_bytes(encode_wav(buffer, encoding))


def _mix_into(frames: np.ndarray, out: np.ndarray) -> None:
    """Write the per-frame arithmetic mean of the columns of ``frames`` to
    ``out``: each frame's channels summed in order, starting from +0.0, then
    divided by the channel count."""
    columns = iter(frames.T)
    np.add(next(columns), next(columns, 0.0), out=out)
    for column in columns:
        out += column
    out += 0.0  # turns -0.0 into +0.0, as a sum started from +0.0 gives
    out /= frames.shape[1]


def to_mono(buffer: AudioBuffer) -> AudioBuffer:
    """Per-frame arithmetic mean of channels; mono input is returned unchanged.

    Each frame is the sequential sum of its channels in order, starting from
    +0.0, divided by the channel count. ``decode_wav`` mixes by this rule.
    """
    if buffer.samples.ndim == 1:
        return buffer
    mixed = np.empty(buffer.n_frames)
    _mix_into(buffer.samples, mixed)
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
        raise ValidationError("resample expects mono audio, as read_wav and decode_wav return it")
    if target_rate == buffer.sample_rate:
        return buffer
    x = buffer.samples
    n_in = len(x)
    n_out = n_in * target_rate // buffer.sample_rate
    step, remainder = divmod(buffer.sample_rate, target_rate)
    if remainder == 0:
        samples = x[: n_out * step : step]
    else:
        ratio = buffer.sample_rate / target_rate
        samples = np.empty(n_out)
        for start in range(0, n_out, _BLOCK):
            positions = np.arange(start, min(start + _BLOCK, n_out), dtype=np.float64)
            positions *= ratio
            head = int(np.searchsorted(positions, n_in - 1))
            j = positions[:head].astype(np.intp)
            frac = positions[:head]
            frac -= j
            lo = np.take(x, j, out=samples[start : start + head])
            delta = np.take(x[1:], j)
            delta -= lo
            delta *= frac
            # a whole position keeps x[j] as it is, sign of zero included
            np.add(lo, delta, out=lo, where=frac != 0)
            if head < len(positions):
                samples[start + head :] = x[-1]
                break
    return AudioBuffer(samples=samples, sample_rate=target_rate, short=buffer.short)


def extract_segment(buffer: AudioBuffer, start_s: float, duration_s: float) -> AudioBuffer:
    """Cut ``[start_s, start_s + duration_s)`` in seconds.

    A file ending early yields the available tail with ``short=True``.

    Raises:
        ValidationError: ``start_s`` is negative or not finite, or
            ``duration_s`` is not positive or not finite.
        DataError: ``start_s`` is at or past the end of the buffer.
    """
    if not 0 <= start_s < np.inf:
        raise ValidationError(f"start_s must be finite and >= 0, got {start_s}")
    if not 0 < duration_s < np.inf:
        raise ValidationError(f"duration_s must be finite and > 0, got {duration_s}")
    # Sample positions are clamped while still floats, so a huge finite cut
    # cannot overflow int(); a start past the end stays past it, and a stop
    # past the end stays past it.
    n = buffer.n_frames
    start = int(round(min(start_s * buffer.sample_rate, n)))
    if start >= n:
        raise DataError(
            f"segment start {start_s:g}s is beyond the {buffer.duration_s:.3f}s buffer"
        )
    stop = start + int(round(min(duration_s * buffer.sample_rate, n + 1)))
    return AudioBuffer(
        samples=buffer.samples[start : min(stop, n)],
        sample_rate=buffer.sample_rate,
        short=stop > n,
    )


def bi_sample(buffer: AudioBuffer, plan: SegmentPlan = DEFAULT_BI_SAMPLE_PLAN) -> list[AudioBuffer]:
    """One segment per cut of the plan, in plan order."""
    return [extract_segment(buffer, start, duration) for start, duration in plan.cuts]
