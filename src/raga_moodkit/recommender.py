"""Mood-transition playlists from per-song rasa scores.

Slot i of an L-slot playlist blends the current and aspired moods with
weight w = i/(L-1) (w = 1 for a single slot), scoring every remaining song
as (1-w) * score[current] + w * score[aspired]; songs are picked greedily
in slot order, ties going to the lexicographically smallest id.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .bundle import ModelBundle
from .catalog import RASAS, parse_rasa
from .errors import EmptyLibrary, ValidationError
from .store import FeatureTable, song_id_of

_SCORE_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ScoredLibrary:
    """Per-song score vectors over the six rasas (each row finite, summing to 1)."""

    song_ids: tuple
    scores: np.ndarray
    classes: tuple = RASAS

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "song_ids", tuple(self.song_ids))
        if scores.shape != (len(self.song_ids), len(self.classes)):
            raise ValidationError(
                f"scores must be ({len(self.song_ids)}, {len(self.classes)}), got {scores.shape}"
            )
        if not np.isfinite(scores).all() or (
            len(self.song_ids) and np.max(np.abs(scores.sum(axis=1) - 1.0)) > _SCORE_SUM_TOL
        ):
            raise ValidationError("every song's scores must be finite and sum to 1")

    def __len__(self) -> int:
        return len(self.song_ids)

    def column(self, rasa) -> np.ndarray:
        name = str(rasa)
        try:
            return self.scores[:, self.classes.index(name)]
        except ValueError as exc:
            raise ValidationError(f"rasa {name!r} not scored in this library") from exc


@dataclass(frozen=True)
class PlaylistSlot:
    rank: int
    song_id: str
    weight: float
    blended_score: float


@dataclass(frozen=True)
class Playlist:
    slots: tuple

    def song_ids(self) -> list:
        return [slot.song_id for slot in self.slots]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [
            f"{slot.rank + 1:>3}. {slot.song_id}  (blend {slot.weight:.2f}, score {slot.blended_score:.4f})"
            for slot in self.slots
        ]
        return "\n".join(lines) + "\n"


def score_library(bundle: ModelBundle, table: FeatureTable) -> ScoredLibrary:
    """Model scores per song: segment scores averaged within each song.

    Refuses feature rows whose MFCC settings or segment plan differ from the
    ones the model was trained on.
    """
    bundle.check_table(table)
    classes = tuple(str(c) for c in bundle.model.classes_)
    if len(table) == 0:
        return ScoredLibrary(song_ids=(), scores=np.empty((0, len(classes))), classes=classes)
    row_scores = bundle.predict_scores(table.X)
    first_rows, song_of_row = table.songs()
    # np.add.at adds row by row in table order, as np.mean over a song's rows
    # does; np.add.reduceat would add a group's later rows pairwise first.
    sums = np.zeros((len(first_rows), row_scores.shape[1]))
    np.add.at(sums, song_of_row, row_scores)
    ids = [song_id_of(table.segment_ids[row]) for row in first_rows.tolist()]
    return ScoredLibrary(song_ids=ids, scores=sums / np.bincount(song_of_row)[:, None], classes=classes)


def slot_weights(length: int) -> np.ndarray:
    """Blend weights per slot: 0 at the current-mood end, 1 at the aspired end."""
    if length < 1:
        raise ValidationError(f"playlist length must be >= 1, got {length}")
    if length == 1:
        return np.array([1.0])
    return np.arange(length) / (length - 1)


def recommend_transition(library: ScoredLibrary, current, aspired, length: int) -> Playlist:
    """Greedy mood-transition playlist of ``min(length, len(library))`` songs."""
    current = parse_rasa(current)
    aspired = parse_rasa(aspired)
    if len(library) == 0:
        raise EmptyLibrary("cannot recommend from an empty library")
    weights = slot_weights(length)
    current_scores = library.column(current)
    aspired_scores = library.column(aspired)

    remaining = set(range(len(library)))
    slots = []
    for rank, weight in enumerate(weights):
        if not remaining:
            break
        blended = (1.0 - weight) * current_scores + weight * aspired_scores
        best = min(remaining, key=lambda i: (-blended[i], library.song_ids[i]))
        remaining.discard(best)
        slots.append(
            PlaylistSlot(
                rank=rank,
                song_id=library.song_ids[best],
                weight=float(weight),
                blended_score=float(blended[best]),
            )
        )
    return Playlist(slots=tuple(slots))
