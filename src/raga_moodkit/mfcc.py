"""Mel-frequency cepstral features computed from first principles.

Per frame the chain is: Hann window -> DFT -> power spectrum -> triangular
mel filterbank -> log energies -> cosine transform. A segment's feature
vector is the per-coefficient mean over its frames.

The DFT is numpy's real FFT (pocketfft); the filterbank and the unscaled
type-II cosine transform are written against their defining sums.
``mfcc_frames`` composes ``power_spectrum``, ``log_mel_energies`` and
``dct_ii`` over batches of frames, and its output is checked frame by frame
against a brute-force DFT fed through those same stages.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Annotated

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .audio import CANONICAL_RATE, AudioBuffer
from .base import CheckedFields, FiniteNonNegativeFloat, FinitePositiveFloat, PositiveInt
from .errors import DataError, ValidationError

_BOUNDARY_MIN_GAP = 1e-9


@dataclass(frozen=True)
class MfccConfig(CheckedFields):
    """Framing, filterbank and transform parameters.

    ``f_high`` defaults to the Nyquist frequency of ``sample_rate``.
    """

    fft_size: Annotated[int, ("a power of two >= 2", lambda n: n >= 2 and n & (n - 1) == 0)] = 2048
    hop: PositiveInt = 512
    n_filters: PositiveInt = 40
    n_coeffs: PositiveInt = 40
    f_low: FiniteNonNegativeFloat = 0.0
    f_high: float | None = None
    sample_rate: PositiveInt = CANONICAL_RATE
    log_floor: FinitePositiveFloat = 1e-10

    def __post_init__(self):
        super().__post_init__()
        if self.f_high is None:
            object.__setattr__(self, "f_high", self.sample_rate / 2.0)
        if self.hop > self.fft_size:
            raise ValidationError(f"need hop <= fft_size, got {self.hop} > {self.fft_size}")
        if not self.f_low < self.f_high <= self.sample_rate / 2.0:
            raise ValidationError(
                f"need f_low < f_high <= sample_rate/2, "
                f"got f_low={self.f_low}, f_high={self.f_high}, rate={self.sample_rate}"
            )
        if self.n_coeffs > self.n_filters:
            raise ValidationError(
                f"need n_coeffs <= n_filters, got {self.n_coeffs} > {self.n_filters}"
            )

    @classmethod
    def from_record(cls, params: dict) -> "MfccConfig":
        """The settings a store sidecar or model bundle records. Files written
        while the window was a setting record ``"window": "hann"``, the window
        every frame uses, which is dropped; any other window, and any name
        that is not a field, is refused."""
        if params.get("window", "hann") != "hann":
            raise ValidationError(f"recorded window {params['window']!r}; only the Hann window is computed")
        if unknown := sorted(params.keys() - {"window", *cls._param_types()}):
            raise ValidationError(f"unknown MFCC settings {unknown}")
        return cls(**{name: value for name, value in params.items() if name != "window"})


@dataclass(frozen=True)
class FeatureVector:
    """Aggregated per-segment coefficients."""

    values: np.ndarray


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular filters: real-valued bin boundaries, an (M, N/2+1) weight
    matrix and, per filter, the ``(first, stop)`` bins outside which its
    weights are zero."""

    boundaries: np.ndarray
    weights: np.ndarray
    spans: tuple[tuple[int, int], ...]


# --- power spectrum ----------------------------------------------------------

def power_spectrum(spectrum, out=None) -> np.ndarray:
    """|X[k]|^2 = re^2 + im^2 per bin k = 0..N/2 of a half spectrum, into ``out``
    when given. The spectrum is used up: its parts are squared in place, uncopied."""
    parts = np.asarray(spectrum, dtype=np.complex128).view(np.float64)
    np.square(parts, out=parts)
    return np.add(parts[..., 0::2], parts[..., 1::2], out=out)


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
        raise ValidationError(
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
    spans = []
    for row in weights:
        support = np.flatnonzero(row)
        spans.append((int(support[0]), int(support[-1]) + 1) if support.size else (0, 0))
    return MelFilterbank(boundaries=bounds, weights=weights, spans=tuple(spans))


def log_mel_energies(power, bank: MelFilterbank, log_floor: float = MfccConfig.log_floor) -> np.ndarray:
    """S[m] = ln(max(sum_k power[k] * H[m, k], floor)) per filter.

    Each filter's sum is one product over its own span of bins, so only
    the nonzero weights are multiplied. A dense product over all bins
    rounds differently as OpenBLAS splits it among one or two threads;
    these per-filter products give the same store at the thread counts
    ``tests/test_cli.py::TestBlasThreads`` runs (``OPENBLAS_NUM_THREADS``
    1, 2 and 4, which OpenBLAS caps at the core count).
    """
    arr = np.asarray(power, dtype=np.float64)
    if arr.shape[-1] != bank.weights.shape[1]:
        raise ValidationError(
            f"power spectrum has {arr.shape[-1]} bins, filterbank expects {bank.weights.shape[1]}"
        )
    energies = np.empty((len(bank.spans),) + arr.shape[:-1])
    for m, (first, stop) in enumerate(bank.spans):
        np.matmul(arr[..., first:stop], bank.weights[m, first:stop], out=energies[m, ...])
    np.maximum(energies, log_floor, out=energies)
    return np.moveaxis(np.log(energies, out=energies), 0, -1)


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

#: Frames per window -> FFT -> power pass in ``mfcc_frames``, whose buffers then stay
#: in L2 cache. Each frame is transformed alone, so the height changes no bit.
_FFT_FRAMES = 16


def mfcc_frames(segment: AudioBuffer, config: MfccConfig) -> np.ndarray:
    """Per-frame coefficients of a mono segment, shape (n_frames, n_coeffs).

    Frames start at hop-strided offsets; the trailing frames are zero-padded,
    giving ceil(len / hop) frames in total. Whole frames are read in place
    from the segment; only the padded tail is copied.

    Raises:
        ValidationError: the segment is not mono or not at the config's rate.
        DataError: segment shorter than one hop.
    """
    if segment.samples.ndim != 1:
        raise ValidationError("mfcc_frames expects mono audio, as read_wav and decode_wav return it")
    if segment.sample_rate != config.sample_rate:
        raise ValidationError(
            f"segment rate {segment.sample_rate} != config rate {config.sample_rate}; resample first"
        )
    signal = np.asarray(segment.samples, dtype=np.float64)
    if len(signal) < config.hop:
        raise DataError(f"segment of {len(signal)} samples is shorter than one hop ({config.hop})")

    hop, size = config.hop, config.fft_size
    n_frames = -(-len(signal) // hop)
    n_whole = max(0, (len(signal) - size) // hop + 1)
    tail = np.zeros((n_frames - n_whole - 1) * hop + size)
    tail[: len(signal) - n_whole * hop] = signal[n_whole * hop :]
    step = signal.strides[0]
    whole = as_strided(signal, (n_whole, size), (hop * step, step), writeable=False)
    padded = as_strided(tail, (n_frames - n_whole, size), (hop * 8, 8), writeable=False)

    window, bank = _frame_constants(config)
    windowed = np.empty((min(n_frames, _FFT_FRAMES), size))
    spectrum = np.empty((len(windowed), size // 2 + 1), np.complex128)
    power = np.empty((min(n_frames, _CHUNK_FRAMES), size // 2 + 1))

    out = np.empty((n_frames, config.n_coeffs))
    for start in range(0, n_frames, _CHUNK_FRAMES):
        stop = min(start + _CHUNK_FRAMES, n_frames)
        for first in range(start, stop, _FFT_FRAMES):
            count = min(_FFT_FRAMES, stop - first)
            # the pass's first ``split`` frames are whole; the rest are in the padded tail
            split = min(max(n_whole - first, 0), count)
            np.multiply(whole[first : first + split], window, out=windowed[:split])
            np.multiply(padded[first + split - n_whole : first + count - n_whole], window,
                        out=windowed[split:count])
            np.fft.rfft(windowed[:count], out=spectrum[:count])
            power_spectrum(spectrum[:count], out=power[first - start : first - start + count])
        energies = log_mel_energies(power[: stop - start], bank, config.log_floor)
        out[start:stop] = dct_ii(energies, config.n_coeffs)
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
        ValidationError: fewer than two feature rows.
        DataError: some feature column is constant.
    """
    matrix = np.asarray(features, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValidationError("correlation needs at least two feature rows")
    stds = matrix.std(axis=0)
    degenerate = np.flatnonzero(stds == 0)
    if degenerate.size:
        raise DataError(f"constant feature columns: {degenerate.tolist()}")
    return np.corrcoef(matrix, rowvar=False)
