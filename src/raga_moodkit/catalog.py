"""Raga-to-rasa catalog, song manifest handling and feature scaling.

The association table is the single source of truth for labels: a song's
rasa is always derived from its raga and never stored in the manifest.
"""
from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from .base import (FiniteFloat, FiniteNonNegativeFloat, ParamsMixin, as_float_matrix, check_fitted, check_value,
                   read_csv, write_csv)
from .errors import DataError, ValidationError
from .models.serialize import check_array


class Rasa(str, enum.Enum):
    """The six moods in scope, in canonical (alphabetical) order."""

    ADHBHUTHA = "Adhbhutha"
    HAASYA = "Haasya"
    KARUNA = "Karuna"
    SHANTHA = "Shantha"
    SHRINGARA = "Shringara"
    VEERA = "Veera"

    def __str__(self) -> str:  # keep CSV/JSON output plain
        return self.value


#: Canonical class order used by reports and confusion matrices.
RASAS = tuple(r.value for r in Rasa)

# Spelling variants seen in the wild for the first rasa.
_RASA_ALIASES = {"adhbbhutha": Rasa.ADHBHUTHA}


def _normalize(name: str) -> str:
    """Lower-case and strip whitespace/hyphens so lookups are forgiving."""
    return "".join(ch for ch in name.lower() if not ch.isspace() and ch != "-")


def parse_rasa(name: str) -> Rasa:
    """Resolve a rasa name (case/whitespace/hyphen-insensitive, alias-aware)."""
    key = _normalize(name)
    for rasa in Rasa:
        if _normalize(rasa.value) == key:
            return rasa
    if key in _RASA_ALIASES:
        return _RASA_ALIASES[key]
    raise ValidationError(f"unknown rasa {name!r}; expected one of {', '.join(RASAS)}")


# Traditional raga/rasa associations. Entries written "A/B" or "A - B" carry
# the second name as an alias of one canonical raga.
_ASSOCIATIONS: dict[Rasa, tuple[str, ...]] = {
    Rasa.ADHBHUTHA: (
        "Abheri/Bhimpalasi",
        "Arabhi",
        "Desh",
        "Hindola",
        "Malayamarutham",
    ),
    Rasa.HAASYA: (
        "Aathana",
        "Kunthalavarali",
        "Reethigowla",
        "Shankarabharanam",
    ),
    Rasa.KARUNA: (
        "Ahibhairav",
        "Bageshri",
        "Kanada",
        "Lalith",
        "Madhuvanti",
        "Punnagavarali",
        "Shivaranjani",
        "Shubhapanthuvarali",
    ),
    Rasa.SHANTHA: (
        "Kalavathi/Valachi",
        "Mayamalavagowla",
        "Sama",
        "Shuddha Saveri - Durga",
        "Sindhu Bhairavi",
        "Yadhukula Kambhodhi",
    ),
    Rasa.SHRINGARA: (
        "Behaag",
        "Brindavani",
        "Kalyani",
        "Kamas",
        "Kapi",
        "Karaharapriya",
        "Pahaadi",
        "YamanKalyani",
    ),
    Rasa.VEERA: (
        "Kedaragowla",
        "Madhyamavathi",
        "Meghamalhaar",
        "Mohana",
    ),
}


class RagaTable:
    """Alias-aware raga -> rasa lookup over the association table above."""

    def __init__(self):
        self._canonical: dict[str, Rasa] = {}
        self._lookup: dict[str, str] = {}
        for rasa, raw_names in _ASSOCIATIONS.items():
            for raw in raw_names:
                if "/" in raw:
                    parts = [p.strip() for p in raw.split("/")]
                elif " - " in raw:
                    parts = [p.strip() for p in raw.split(" - ")]
                else:
                    parts = [raw.strip()]
                canonical = parts[0]
                self._canonical[canonical] = rasa
                for alias in parts + [raw]:
                    self._register(alias, canonical)

    def _register(self, alias: str, canonical: str) -> None:
        key = _normalize(alias)
        existing = self._lookup.get(key)
        if existing is not None and existing != canonical:
            raise ValidationError(f"alias {alias!r} maps to both {existing!r} and {canonical!r}")
        self._lookup[key] = canonical

    def canonical_name(self, name: str) -> str:
        key = _normalize(name)
        if key not in self._lookup:
            raise DataError(f"raga {name!r} is not in the association table")
        return self._lookup[key]

    def rasa_for_raga(self, name: str) -> Rasa:
        return self._canonical[self.canonical_name(name)]

    def ragas_for_rasa(self, rasa: Rasa) -> tuple[str, ...]:
        return tuple(name for name, r in self._canonical.items() if r is rasa)


DEFAULT_RAGA_TABLE = RagaTable()


def rasa_for_raga(name: str) -> Rasa:
    """Alias-aware, case-insensitive lookup; unknown names fail closed."""
    return DEFAULT_RAGA_TABLE.rasa_for_raga(name)


GENRES = ("Folk/Album", "Indian Classical", "Movie")

MANIFEST_FIELDS = ("id", "path", "title", "raga", "language", "genre")


@dataclass(frozen=True)
class SongRecord:
    id: str
    path: str
    title: str
    raga: str
    language: str
    genre: str
    rasa: Rasa


def load_manifest(path) -> list[SongRecord]:
    """Read and validate a song manifest CSV.

    The header must be exactly ``id,path,title,raga,language,genre``, and
    every other line but a blank one holds those six fields; the rasa
    column does not exist on disk and is derived from the raga here.
    """
    path = Path(path)
    with contextlib.closing(read_csv(path)) as rows:
        _, header = next(rows, (None, None))
        if header is None or tuple(header) != MANIFEST_FIELDS:
            raise ValidationError(f"manifest header must be {','.join(MANIFEST_FIELDS)}, got {header}")
        records: list[SongRecord] = []
        seen: set[str] = set()
        for line, fields in rows:
            if not fields:
                continue
            if len(fields) != len(MANIFEST_FIELDS):
                raise DataError(f"{path.name}:{line}: {len(fields)} fields, expected {len(MANIFEST_FIELDS)}")
            song_id, song_path, title, raga, language, genre = (field.strip() for field in fields)
            if not song_id:
                raise ValidationError(f"{path.name}:{line}: empty id")
            if song_id in seen:
                raise DataError(f"{path.name}:{line}: duplicate id {song_id!r}")
            seen.add(song_id)
            if genre not in GENRES:
                raise DataError(f"{path.name}:{line} (id={song_id}): genre {genre!r} not in {GENRES}")
            try:
                rasa = DEFAULT_RAGA_TABLE.rasa_for_raga(raga)
            except DataError as exc:
                raise DataError(f"{path.name}:{line} (id={song_id}): {exc}") from exc
            records.append(SongRecord(song_id, song_path, title, raga, language, genre, rasa))
    return records


def write_manifest(path, records) -> None:
    write_csv(path, MANIFEST_FIELDS, ([rec.id, rec.path, rec.title, rec.raga, rec.language, rec.genre]
                                      for rec in records))


ScalerKind = Literal["zscore", "minmax"]


@dataclass(eq=False)
class FeatureScaler(ParamsMixin):
    """Per-feature scaling fitted on training rows only.

    ``zscore`` maps to (x - mean) / std (population std); ``minmax`` maps to
    (x - min) / (max - min). Degenerate features (zero spread) map to 0.
    """

    kind: ScalerKind = "zscore"

    def fit(self, X):
        X = as_float_matrix(X)
        if X.shape[0] < 2:
            raise ValidationError(f"scaler needs at least 2 training rows, got {X.shape[0]}")
        if self.kind == "zscore":
            self.offset_ = X.mean(axis=0)
            self.scale_ = X.std(axis=0)
        else:
            self.offset_ = X.min(axis=0)
            self.scale_ = X.max(axis=0) - self.offset_
        return self

    def transform(self, X):
        check_fitted(self, "scale_")
        X = as_float_matrix(X)
        if X.shape[1] != len(self.scale_):
            raise ValidationError(
                f"scaler fitted on {len(self.scale_)} features, got {X.shape[1]}"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (X - self.offset_) / self.scale_
        return np.where(self.scale_ > 0, out, 0.0)

    def to_dict(self) -> dict:
        check_fitted(self, "scale_")
        return {
            "kind": self.kind,
            "offset": self.offset_.tolist(),
            "scale": self.scale_.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict, sizes: dict, path: str = "") -> "FeatureScaler":
        """Load the record ``to_dict`` writes, found at ``path`` of its JSON file: ``offset`` and ``scale``
        are stored arrays of shape ``(F,)``, bound in ``sizes``, and no scale is negative."""
        check_value(payload, {**cls._param_types(), "offset": tuple[FiniteFloat, ...],
                              "scale": tuple[FiniteNonNegativeFloat, ...]}, path)
        scaler = cls()
        scaler._set_checked({"kind": payload["kind"]})
        scaler.offset_, scaler.scale_ = (
            check_array(key, np.asarray(payload[key], dtype=np.float64), ("F",), sizes) for key in ("offset", "scale"))
        return scaler
