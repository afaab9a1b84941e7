"""Synthetic labeled corpus: six harmonic-tone recipes, one per rasa.

Classes differ in fundamental *and* harmonic amplitude profile, so the
spectral envelope (which the cepstral features capture) separates them;
per-file jitter, vibrato and a noise floor keep the task honest. Stands in
for a private labeled corpus when exercising the pipeline end to end.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import CANONICAL_RATE, AudioBuffer, write_wav
from .catalog import DEFAULT_RAGA_TABLE, Rasa, write_manifest
from .errors import ValidationError


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


@dataclass(frozen=True)
class SyntheticSpec:
    """Corpus size and seed; every file is rendered at ``CANONICAL_RATE``
    from ``DEFAULT_RECIPES``."""

    files_per_class: int = 20
    duration_s: float = 90.0
    seed: int = 0

    def __post_init__(self):
        if self.files_per_class < 1:
            raise ValidationError(f"files_per_class must be >= 1, got {self.files_per_class}")
        if not 0 < self.duration_s < np.inf:
            raise ValidationError(f"duration_s must be finite and > 0, got {self.duration_s}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


#: Samples per block when summing the harmonics: the complex temporaries of
#: one block (256 KB each) stay in cache instead of spanning the whole render.
_BLOCK = 1 << 14


def synth_signal(recipe: RasaRecipe, duration_s: float, sample_rate: int, rng) -> np.ndarray:
    """One harmonic tone with vibrato, per-render jitter and a noise floor.

    Harmonic k below 0.95 * Nyquist contributes ``a_k * sin(k * phase + theta_k)``
    with jittered amplitude ``a_k``. The sum is evaluated as
    ``Im(sum_k c_k z^k)`` with ``c_k = a_k * exp(i * theta_k)`` and
    ``z = exp(i * phase)`` by Horner's rule, so one complex exponential per
    sample replaces a sine per harmonic.
    """
    n = int(round(duration_s * sample_rate))
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


def generate_corpus(spec: SyntheticSpec, out_dir) -> Path:
    """Write per-class WAV files plus a manifest; returns the manifest path.

    Each rasa is represented by the first raga associated with it, so the
    manifest resolves through the catalog without special cases. Output is
    byte-deterministic for a given spec.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = np.random.default_rng(spec.seed).integers(
        0, 2**63 - 1, size=(len(Rasa), spec.files_per_class)
    )

    from .catalog import SongRecord  # local import to avoid cycle at module load

    records = []
    for class_index, rasa in enumerate(sorted(Rasa, key=lambda r: r.value)):
        recipe = DEFAULT_RECIPES[rasa]
        raga = DEFAULT_RAGA_TABLE.ragas_for_rasa(rasa)[0]
        for file_index in range(spec.files_per_class):
            rng = np.random.default_rng(seeds[class_index, file_index])
            samples = synth_signal(recipe, spec.duration_s, CANONICAL_RATE, rng)
            song_id = f"{rasa.value.lower()}_{file_index:03d}"
            filename = f"{song_id}.wav"
            write_wav(out_dir / filename, AudioBuffer(samples=samples, sample_rate=CANONICAL_RATE))
            records.append(
                SongRecord(
                    id=song_id,
                    path=filename,
                    title=f"{raga} study {file_index + 1}",
                    raga=raga,
                    language="Instrumental",
                    genre="Indian Classical",
                    rasa=rasa,
                )
            )
    manifest = out_dir / "manifest.csv"
    write_manifest(manifest, records)
    return manifest
