"""Synthetic labeled corpus: six harmonic-tone recipes, one per rasa.

Classes differ in fundamental *and* harmonic amplitude profile, so the
spectral envelope (which the cepstral features capture) separates them;
per-file jitter, vibrato and a noise floor keep the task honest. Stands in
for a private labeled corpus when exercising the pipeline end to end.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .audio import _BLOCK, CANONICAL_RATE, AudioBuffer, write_wav
from .base import CheckedFields, FinitePositiveFloat, NonNegativeInt, PositiveInt
from .catalog import DEFAULT_RAGA_TABLE, Rasa, SongRecord, write_manifest
from .errors import ValidationError
from .experiments import _pool_calls


@dataclass(frozen=True)
class RasaRecipe:
    fundamental_hz: float
    harmonic_amps: tuple
    vibrato_hz: float
    vibrato_depth: float = 0.01
    noise_floor: float = 0.005


DEFAULT_RECIPES: dict[Rasa, RasaRecipe] = {
    # bright, saw-like rolloff
    Rasa.ADHBHUTHA: RasaRecipe(196.0, (1.0, 0.5, 0.33, 0.25, 0.2, 0.17, 0.14, 0.12), 4.0),
    # hollow: odd harmonics only
    Rasa.HAASYA: RasaRecipe(262.0, (1.0, 0.02, 0.6, 0.02, 0.4, 0.02, 0.25, 0.02), 4.5),
    # dark, steep rolloff
    Rasa.KARUNA: RasaRecipe(147.0, (1.0, 0.35, 0.12, 0.05, 0.02), 5.0, noise_floor=0.008),
    # flute-like: fundamental dominant
    Rasa.SHANTHA: RasaRecipe(220.0, (1.0, 0.15, 0.05, 0.02), 5.5, noise_floor=0.003),
    # formant bump around the third/fourth partial
    Rasa.SHRINGARA: RasaRecipe(294.0, (0.5, 0.7, 1.0, 0.9, 0.4, 0.15), 6.0),
    # brassy: strong upper partials
    Rasa.VEERA: RasaRecipe(330.0, (0.6, 0.8, 0.9, 1.0, 0.9, 0.8, 0.6, 0.4), 6.5),
}


#: A render length in seconds that holds at least one sample.
RenderableDuration = Annotated[
    FinitePositiveFloat,
    (f"at least one sample at {CANONICAL_RATE} Hz", lambda v: round(v * CANONICAL_RATE) >= 1),
]


@dataclass(frozen=True)
class SyntheticSpec(CheckedFields):
    """Corpus size and seed; every file is rendered at ``CANONICAL_RATE``
    from ``DEFAULT_RECIPES``."""

    files_per_class: PositiveInt = 20
    duration_s: RenderableDuration = 90.0
    seed: NonNegativeInt = 0


def synth_signal(recipe: RasaRecipe, duration_s: float, sample_rate: int, rng) -> np.ndarray:
    """One harmonic tone with vibrato, per-render jitter and a noise floor.

    Harmonic k below 0.95 * Nyquist contributes ``a_k * sin(k * phase + theta_k)``
    with jittered amplitude ``a_k``. The sum is evaluated as
    ``Im(sum_k c_k z^k)`` with ``c_k = a_k * exp(i * theta_k)`` and
    ``z = exp(i * phase)`` by Horner's rule, so one cosine and one sine per
    sample replace a sine per harmonic. The render proceeds one block of
    samples at a time, carrying the phase sum across blocks, so no temporary
    spans the whole signal.
    """
    n = int(round(duration_s * sample_rate))
    if n < 1:
        raise ValidationError(f"a render of {duration_s!r} s at {sample_rate} Hz holds no sample")
    fundamental = recipe.fundamental_hz * (1.0 + rng.uniform(-0.01, 0.01))
    vibrato_phase = rng.uniform(0.0, 2.0 * np.pi)

    coeffs = []
    nyquist = sample_rate / 2.0
    for harmonic, amp in enumerate(recipe.harmonic_amps, start=1):
        if harmonic * fundamental >= 0.95 * nyquist:
            break
        jitter = amp * rng.uniform(0.85, 1.15)
        coeffs.append(jitter * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))

    signal = np.empty(n)
    z = np.empty(min(n, _BLOCK), dtype=np.complex128)
    acc = np.empty_like(z)
    phase_sum = 0.0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        t = np.arange(start, stop) / sample_rate
        vibrato = 1.0 + recipe.vibrato_depth * np.sin(2.0 * np.pi * recipe.vibrato_hz * t + vibrato_phase)
        steps = fundamental * vibrato
        steps[0] += phase_sum  # the running sum carries on from the previous block
        cumulative = np.cumsum(steps)
        phase_sum = cumulative[-1]
        phase = 2.0 * np.pi * cumulative / sample_rate

        block_z, block_acc = z[: stop - start], acc[: stop - start]
        np.cos(phase, out=block_z.real)
        np.sin(phase, out=block_z.imag)
        block_acc.fill(0.0)
        for c in reversed(coeffs):
            block_acc += c
            block_acc *= block_z
        signal[start:stop] = block_acc.imag

    peak = max(signal.max(), -signal.min())
    if peak > 0:
        signal *= rng.uniform(0.6, 0.8) / peak
    noise = np.empty(len(z))
    for start in range(0, n, _BLOCK):
        block = signal[start : start + _BLOCK]
        draws = rng.standard_normal(out=noise[: len(block)])
        draws *= recipe.noise_floor
        block += draws
    return np.clip(signal, -0.98, 0.98, out=signal)


def _render_song(rasa: Rasa, file_index: int, seed, duration_s: float, out_dir: Path) -> SongRecord:
    """Render one corpus file from its own seed, write it into ``out_dir``
    (made if missing) and return its record."""
    samples = synth_signal(DEFAULT_RECIPES[rasa], duration_s, CANONICAL_RATE, np.random.default_rng(seed))
    raga = DEFAULT_RAGA_TABLE.ragas_for_rasa(rasa)[0]
    song_id = f"{rasa.value.lower()}_{file_index:03d}"
    filename = f"{song_id}.wav"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_wav(out_dir / filename, AudioBuffer(samples=samples, sample_rate=CANONICAL_RATE))
    return SongRecord(
        id=song_id,
        path=filename,
        title=f"{raga} study {file_index + 1}",
        raga=raga,
        language="Instrumental",
        genre="Indian Classical",
        rasa=rasa,
    )


def generate_corpus(spec: SyntheticSpec, out_dir, jobs: int = 1) -> Path:
    """Write per-class WAV files plus a manifest; returns the manifest path.

    Each rasa is represented by the first raga associated with it, so the
    manifest resolves through the catalog without special cases. Every file
    renders from its own seed, drawn up front, so output is
    byte-deterministic for a given spec whatever ``jobs``, the number of
    worker processes that render files.
    """
    out_dir = Path(out_dir)
    seeds = np.random.default_rng(spec.seed).integers(
        0, 2**63 - 1, size=(len(Rasa), spec.files_per_class)
    )
    calls = [
        functools.partial(_render_song, rasa, file_index, seeds[class_index, file_index],
                          spec.duration_s, out_dir)
        for class_index, rasa in enumerate(sorted(Rasa, key=lambda r: r.value))
        for file_index in range(spec.files_per_class)
    ]
    records = [result() for result in _pool_calls(calls, jobs)]
    manifest = out_dir / "manifest.csv"
    write_manifest(manifest, records)
    return manifest
