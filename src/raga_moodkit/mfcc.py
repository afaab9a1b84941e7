"""Mel-frequency cepstral features computed from first principles.

Per frame the chain is: Hann window -> DFT -> power spectrum -> triangular
mel filterbank -> log energies -> cosine transform. A segment's feature
vector is the per-coefficient mean over its frames.

The DFT is numpy's real FFT (pocketfft); the filterbank and the unscaled
type-II cosine transform are written against their defining sums.
``mfcc_frames`` composes ``log_mel_energies`` and ``dct_ii`` over batches of
frames, and its output is checked frame by frame against a brute-force DFT
fed through ``power_spectrum`` and those same stages.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .audio import AudioBuffer
from .errors import (
    DegenerateBank,
    EmptySegment,
    LengthMismatch,
    ValidationError,
    ZeroVariance,
)

_BOUNDARY_MIN_GAP = 1e-9


@dataclass(frozen=True)
class MfccConfig:
    """Framing, filterbank and transform parameters.

    ``f_high`` defaults to the Nyquist frequency of ``sample_rate``.
    """

    fft_size: int = 2048
    hop: int = 512
    window: str = "hann"
    n_filters: int = 40
    n_coeffs: int = 40
    f_low: float = 0.0
    f_high: float | None = None
    sample_rate: int = 22050
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.f_high is None:
            object.__setattr__(self, "f_high", self.sample_rate / 2.0)
        n = self.fft_size
        if n < 2 or n & (n - 1):
            raise ValidationError(f"fft_size must be a power of two, got {n}")
        if not 0 < self.hop <= n:
            raise ValidationError(f"hop must be in (0, fft_size], got {self.hop}")
        if self.window != "hann":
            raise ValidationError(f"unsupported window {self.window!r}")
        if self.sample_rate <= 0:
            raise ValidationError(f"sample_rate must be positive, got {self.sample_rate}")
        if not 0 <= self.f_low < self.f_high <= self.sample_rate / 2.0:
            raise ValidationError(
                f"need 0 <= f_low < f_high <= sample_rate/2, "
                f"got f_low={self.f_low}, f_high={self.f_high}, rate={self.sample_rate}"
            )
        if not 1 <= self.n_coeffs <= self.n_filters:
            raise ValidationError(
                f"need 1 <= n_coeffs <= n_filters, got {self.n_coeffs} > {self.n_filters}"
            )
        if not self.log_floor > 0:
            raise ValidationError(f"log_floor must be positive, got {self.log_floor}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class FeatureVector:
    """Aggregated per-segment coefficients."""

    values: np.ndarray


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular filters: real-valued bin boundaries and an (M, N/2+1) weight matrix."""

    boundaries: np.ndarray
    weights: np.ndarray


# --- power spectrum ----------------------------------------------------------

def power_spectrum(spectrum) -> np.ndarray:
    """|X[k]|^2 for k = 0..N/2 from a full-length spectrum."""
    arr = np.asarray(spectrum)
    n = arr.shape[-1]
    return np.abs(arr[..., : n // 2 + 1]) ** 2


# --- mel scale and filterbank -------------------------------------------------

def mel(f):
    """Hz -> mel: 1125 * ln(1 + f/700)."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise ValidationError("frequency must be >= 0")
    return 1125.0 * np.log1p(f / 700.0)


def mel_inv(b):
    """mel -> Hz: 700 * (exp(b/1125) - 1)."""
    b = np.asarray(b, dtype=np.float64)
    if np.any(b < 0):
        raise ValidationError("mel value must be >= 0")
    return 700.0 * np.expm1(b / 1125.0)


def filterbank_boundaries(config: MfccConfig) -> np.ndarray:
    """M+2 filter boundary points, uniformly spaced in mel, in FFT-bin units.

    Boundaries are kept real-valued (no rounding to integer bins) so that
    adjacent filters partition unity exactly.
    """
    m = np.arange(config.n_filters + 2, dtype=np.float64)
    lo = float(mel(config.f_low))
    hi = float(mel(config.f_high))
    hz = mel_inv(lo + m * (hi - lo) / (config.n_filters + 1))
    bins = (config.fft_size / config.sample_rate) * hz
    if np.any(np.diff(bins) <= _BOUNDARY_MIN_GAP):
        raise DegenerateBank(
            f"adjacent filter boundaries closer than {_BOUNDARY_MIN_GAP} bins; "
            f"reduce n_filters or widen [f_low, f_high]"
        )
    return bins


def build_filterbank(config: MfccConfig) -> MelFilterbank:
    """Triangular filters evaluated at integer bins k = 0..N/2.

    Filter m rises linearly from boundary m-1 to a unit peak at boundary m
    and falls to zero at boundary m+1; outside that support it is zero.
    """
    bounds = filterbank_boundaries(config)
    k = np.arange(config.fft_size // 2 + 1, dtype=np.float64)
    left = bounds[:-2, None]
    center = bounds[1:-1, None]
    right = bounds[2:, None]
    rising = (k - left) / (center - left)
    falling = (right - k) / (right - center)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    return MelFilterbank(boundaries=bounds, weights=weights)


def log_mel_energies(power, bank: MelFilterbank, log_floor: float = 1e-10) -> np.ndarray:
    """S[m] = ln(max(sum_k power[k] * H[m, k], floor)) per filter."""
    arr = np.asarray(power, dtype=np.float64)
    if arr.shape[-1] != bank.weights.shape[1]:
        raise LengthMismatch(
            f"power spectrum has {arr.shape[-1]} bins, filterbank expects {bank.weights.shape[1]}"
        )
    energies = arr @ bank.weights.T
    return np.log(np.maximum(energies, log_floor))


# --- cosine transform ---------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _dct_basis(m: int, n_coeffs: int) -> np.ndarray:
    n = np.arange(n_coeffs, dtype=np.float64)[:, None]
    half_bins = np.arange(m, dtype=np.float64)[None, :] + 0.5
    basis = np.cos(np.pi * n * half_bins / m)
    basis.setflags(write=False)
    return basis


def dct_ii(values, n_coeffs: int | None = None) -> np.ndarray:
    """Unscaled type-II DCT: c(n) = sum_m S[m] * cos(pi * n * (m + 0.5) / M)."""
    arr = np.asarray(values, dtype=np.float64)
    m = arr.shape[-1]
    if n_coeffs is None:
        n_coeffs = m
    if not 1 <= n_coeffs <= m:
        raise ValidationError(f"need 1 <= n_coeffs <= {m}, got {n_coeffs}")
    return arr @ _dct_basis(m, n_coeffs).T


# --- framing and aggregation --------------------------------------------------

@functools.lru_cache(maxsize=16)
def _frame_constants(config: MfccConfig) -> tuple[np.ndarray, MelFilterbank]:
    """The Hann window and mel filterbank of a config, built once and read-only,
    since every caller of ``mfcc_frames`` shares them."""
    n = config.fft_size
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    bank = build_filterbank(config)
    for arr in (window, bank.boundaries, bank.weights):
        arr.setflags(write=False)
    return window, bank


#: Frames per batch in ``mfcc_frames``. The matrix products round differently
#: for different batch heights, so this is fixed rather than a parameter:
#: features must not depend on a tuning knob.
_CHUNK_FRAMES = 256


def mfcc_frames(segment: AudioBuffer, config: MfccConfig) -> np.ndarray:
    """Per-frame coefficients of a mono segment, shape (n_frames, n_coeffs).

    Frames start at hop-strided offsets; the trailing frames are zero-padded,
    giving ceil(len / hop) frames in total.

    Raises:
        EmptySegment: segment shorter than one hop.
    """
    if segment.samples.ndim != 1:
        raise ValidationError("mfcc_frames expects mono audio; call to_mono first")
    if segment.sample_rate != config.sample_rate:
        raise ValidationError(
            f"segment rate {segment.sample_rate} != config rate {config.sample_rate}; resample first"
        )
    signal = np.asarray(segment.samples, dtype=np.float64)
    if len(signal) < config.hop:
        raise EmptySegment(f"segment of {len(signal)} samples is shorter than one hop ({config.hop})")

    n_frames = -(-len(signal) // config.hop)
    padded = np.zeros((n_frames - 1) * config.hop + config.fft_size)
    padded[: len(signal)] = signal
    frames = np.lib.stride_tricks.sliding_window_view(padded, config.fft_size)[:: config.hop]

    window, bank = _frame_constants(config)

    out = np.empty((n_frames, config.n_coeffs))
    for start in range(0, n_frames, _CHUNK_FRAMES):
        power = np.abs(np.fft.rfft(frames[start : start + _CHUNK_FRAMES] * window)) ** 2
        energies = log_mel_energies(power, bank, config.log_floor)
        out[start : start + _CHUNK_FRAMES] = dct_ii(energies, config.n_coeffs)
    return out


def aggregate_features(frames) -> FeatureVector:
    """Per-coefficient arithmetic mean across frames."""
    arr = np.asarray(frames, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValidationError(f"expected a non-empty frame matrix, got shape {arr.shape}")
    return FeatureVector(values=arr.mean(axis=0))


def segment_features(segment: AudioBuffer, config: MfccConfig) -> FeatureVector:
    """Full per-segment pipeline: frames -> mean coefficient vector."""
    return aggregate_features(mfcc_frames(segment, config))


def feature_correlation(features) -> np.ndarray:
    """Pearson correlation matrix across the columns of a row matrix.

    Raises:
        ZeroVariance: some feature column is constant.
    """
    matrix = np.asarray(features, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValidationError("correlation needs at least two feature rows")
    stds = matrix.std(axis=0)
    degenerate = np.flatnonzero(stds == 0)
    if degenerate.size:
        raise ZeroVariance(f"constant feature columns: {degenerate.tolist()}")
    return np.corrcoef(matrix, rowvar=False)
