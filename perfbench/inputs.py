"""Seeded inputs for the benchmark workloads.

Audio is rendered with the toolkit's own ``synth.synth_signal`` and encoded
with ``audio.encode_wav``; the benchmark only decides rates, channel
layouts, encodings and seeds. ``synth.synth_signal`` is looked up through the
module at call time so that a traced run sees these calls.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from raga_moodkit import audio, synth
from raga_moodkit.catalog import DEFAULT_RAGA_TABLE, Rasa, SongRecord, write_manifest

#: Canonical class order (alphabetical), as the toolkit reports it.
CLASSES = tuple(sorted(Rasa, key=lambda r: r.value))
NATIVE_RATE = audio.CANONICAL_RATE

#: Ingest files last 80 s: exactly the extent of the bisample plan (0-60 s, 20-80 s).
INGEST_DURATION_S = 80.0

#: The extensible-header file and its plain twin never depend on --seed, so the
#: operation that fails on them fails identically in every run.
TWIN_SEED = 20220314
TWIN_CLASS = Rasa.KARUNA

#: KSDATAFORMAT_SUBTYPE_PCM {00000001-0000-0010-8000-00AA00389B71}, as stored on disk.
_SUBTYPE_PCM = bytes.fromhex("01000000" "0000" "1000" "8000" "00aa00389b71")


@dataclass(frozen=True)
class AudioFile:
    id: str
    path: Path
    rasa: Rasa
    rate: int
    channels: int
    encoding: str
    duration_s: float
    twin_of: str | None = None  # set on an extensible-header file


def child_rng(rng: np.random.Generator) -> np.random.Generator:
    return np.random.default_rng(int(rng.integers(2**63 - 1)))


def render(rasa: Rasa, duration_s: float, rate: int, rng, channels: int = 1) -> np.ndarray:
    """One synthesizer render; a second channel is a scaled copy with its own noise."""
    left = synth.synth_signal(synth.DEFAULT_RECIPES[rasa], duration_s, rate, rng)
    if channels == 1:
        return left
    right = np.clip(0.9 * left + 0.002 * rng.standard_normal(len(left)), -1.0, 1.0)
    return np.stack([left, right], axis=1)


def wav_bytes(samples: np.ndarray, rate: int, encoding: str) -> bytes:
    return audio.encode_wav(audio.AudioBuffer(samples=samples, sample_rate=rate), encoding)


def to_extensible(plain: bytes) -> bytes:
    """Rewrap a plain PCM stream from ``encode_wav`` with a WAVE_FORMAT_EXTENSIBLE
    (0xFFFE) fmt chunk; the data chunk is kept byte for byte."""
    if plain[12:16] != b"fmt " or plain[36:40] != b"data":
        raise ValueError("expected the fmt-then-data layout that encode_wav writes")
    _tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", plain, 20)
    fmt = struct.pack(
        "<HHIIHHHHI16s", 0xFFFE, channels, rate, byte_rate, block_align, bits,
        22, bits, (1 << channels) - 1, _SUBTYPE_PCM,
    )
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + plain[36:]
    return b"RIFF" + struct.pack("<I", len(body)) + body


def write_corpus_manifest(out_dir: Path, files) -> Path:
    records = [
        SongRecord(
            id=f.id,
            path=f.path.name,
            title=f.id,
            raga=DEFAULT_RAGA_TABLE.ragas_for_rasa(f.rasa)[0],
            language="Instrumental",
            genre="Indian Classical",
            rasa=f.rasa,
        )
        for f in files
    ]
    manifest = out_dir / "manifest.csv"
    write_manifest(manifest, records)
    return manifest


def _write(out_dir: Path, file_id: str, data: bytes, **spec) -> AudioFile:
    path = out_dir / f"{file_id}.wav"
    path.write_bytes(data)
    return AudioFile(id=file_id, path=path, **spec)


def ingest_corpus(out_dir: Path, seed: int) -> list[AudioFile]:
    """One ingest round: three seeded renders, one per source format, plus a
    fixed 24-bit stereo file under a WAVE_FORMAT_EXTENSIBLE header and its
    plain-PCM24 twin with byte-identical samples."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    classes = [CLASSES[i] for i in rng.permutation(len(CLASSES))[:3]]
    files = []
    for rasa, (rate, channels, encoding) in zip(
        classes, [(NATIVE_RATE, 1, "pcm16"), (44100, 2, "pcm24"), (48000, 2, "float32")]
    ):
        samples = render(rasa, INGEST_DURATION_S, rate, child_rng(rng), channels)
        file_id = f"{encoding}_{rate}_{rasa.value.lower()}"
        files.append(_write(out_dir, file_id, wav_bytes(samples, rate, encoding), rasa=rasa,
                            rate=rate, channels=channels, encoding=encoding,
                            duration_s=INGEST_DURATION_S))

    twin_samples = render(TWIN_CLASS, INGEST_DURATION_S, 44100,
                          np.random.default_rng(TWIN_SEED), channels=2)
    plain = wav_bytes(twin_samples, 44100, "pcm24")
    spec = dict(rasa=TWIN_CLASS, rate=44100, channels=2, duration_s=INGEST_DURATION_S)
    files.append(_write(out_dir, "twin_plain", plain, encoding="pcm24", **spec))
    files.append(_write(out_dir, "twin_extensible", to_extensible(plain),
                        encoding="pcm24-extensible", twin_of="twin_plain", **spec))
    return files


def class_corpus(out_dir: Path, rng, files_per_class: int, duration_s: float,
                 prefix: str = "") -> list[AudioFile]:
    """``files_per_class`` native-rate mono PCM16 renders of every class."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for rasa in CLASSES:
        for index in range(files_per_class):
            samples = render(rasa, duration_s, NATIVE_RATE, child_rng(rng))
            file_id = f"{prefix}{rasa.value.lower()}_{index:02d}"
            files.append(_write(out_dir, file_id, wav_bytes(samples, NATIVE_RATE, "pcm16"),
                                rasa=rasa, rate=NATIVE_RATE, channels=1, encoding="pcm16",
                                duration_s=duration_s))
    return files
