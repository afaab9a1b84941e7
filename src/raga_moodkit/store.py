"""Feature store: one CSV row per segment plus a self-describing sidecar.

CSV header is ``segment_id, rasa, c0..c{n-1}``. Segment ids are
``<song_id>:<cut_index>`` so rows can be grouped back to their source file.
The sidecar (``<store>.meta.json``) records the full extraction
configuration, which a model bundle compares with its own to refuse
mismatched features.
"""
from __future__ import annotations

import collections
import csv
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Literal

import numpy as np

from .audio import SegmentPlan
from .base import check_value, read_json
from .errors import CorruptArtifact, ValidationError
from .mfcc import MfccConfig

STORE_FORMAT_VERSION = 1


def segment_id(song_id: str, cut_index: int) -> str:
    return f"{song_id}:{cut_index}"


def song_id_of(segment: str) -> str:
    return segment.rsplit(":", 1)[0]


@dataclass
class FeatureTable:
    """In-memory feature rows with their extraction configuration."""

    segment_ids: list
    labels: np.ndarray
    X: np.ndarray
    mfcc: MfccConfig
    plan: SegmentPlan

    def __post_init__(self):
        if len(self.segment_ids) != len(self.labels) or len(self.labels) != self.X.shape[0]:
            raise ValidationError("segment ids, labels and rows must align")
        # a split records each row's side by its id, so an id names one row
        if len(set(self.segment_ids)) != len(self.segment_ids):
            repeated = next(s for s, n in collections.Counter(self.segment_ids).items() if n > 1)
            raise ValidationError(f"segment id {repeated!r} names more than one row")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def song_ids(self) -> list:
        return [song_id_of(s) for s in self.segment_ids]

    def songs(self) -> tuple[np.ndarray, np.ndarray]:
        """Each song's first row and each row's song, songs numbered in order of appearance."""
        numbers: dict[str, int] = {}
        song_of_row = np.array([numbers.setdefault(s, len(numbers)) for s in self.song_ids], dtype=np.int64)
        return np.unique(song_of_row, return_index=True)[1], song_of_row


def write_store(table: FeatureTable, path, extra_meta: dict | None = None) -> None:
    path = Path(path)
    n_coeffs = table.X.shape[1]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["segment_id", "rasa"] + [f"c{i}" for i in range(n_coeffs)])
        for seg, label, row in zip(table.segment_ids, table.labels, table.X):
            writer.writerow([seg, str(label)] + [repr(float(v)) for v in row])
    meta = {
        "format_version": STORE_FORMAT_VERSION,
        "mfcc": table.mfcc.get_params(),
        "segment_plan": [list(cut) for cut in table.plan.cuts],
        "n_rows": len(table),
    }
    if extra_meta:
        meta.update(extra_meta)
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


#: The sidecar record ``write_store`` writes; ``extra_meta`` keys are not read back.
_SIDECAR_RECORD = {"format_version": Literal[STORE_FORMAT_VERSION], "mfcc": MfccConfig._param_types(),
                   "segment_plan": SegmentPlan._param_types()["cuts"],
                   "n_rows": Annotated[int, ("a count >= 1 of the rows its sidecar records", lambda n: n >= 1)]}


def sidecar_path(store_path) -> Path:
    return Path(str(store_path) + ".meta.json")


def read_store(path) -> FeatureTable:
    path = Path(path)
    meta_file = sidecar_path(path)
    # an absent store is a missing input file (exit 2), not a store without its sidecar
    if not path.exists():
        raise FileNotFoundError(f"feature store {path} does not exist")
    if not meta_file.exists():
        raise ValidationError(f"missing sidecar {meta_file.name}; the store is not self-describing")
    try:
        meta = read_json(meta_file)
        check_value(meta, _SIDECAR_RECORD)
        config, plan, n_rows = MfccConfig.from_record(meta["mfcc"]), SegmentPlan(meta["segment_plan"]), meta["n_rows"]
    except (OverflowError, ValidationError) as exc:
        raise CorruptArtifact(f"sidecar {meta_file.name} is corrupt: {exc}") from exc
    # a row takes at least two bytes per coefficient: the sidecar cannot size X past the file
    if n_rows > path.stat().st_size // (2 * config.n_coeffs + 1):
        raise CorruptArtifact(f"{path.name} cannot hold the {n_rows} rows its sidecar records")
    try:
        segment_ids: list[str] = []
        labels: list[str] = []
        X = np.empty((n_rows, config.n_coeffs))  # filled row by row; no lists of floats are kept
        expected = ["segment_id", "rasa"] + [f"c{i}" for i in range(config.n_coeffs)]
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != expected:
                raise ValidationError(f"store header mismatch: expected {expected[:3]}..., got {header}")
            for line_no, line in enumerate(itertools.islice(reader, n_rows), start=2):
                if len(line) != len(expected):
                    raise CorruptArtifact(
                        f"{path.name} line {line_no}: {len(line)} fields, expected {len(expected)}"
                    )
                try:
                    X[line_no - 2] = list(map(float, line[2:]))
                except ValueError as exc:
                    raise CorruptArtifact(f"{path.name} line {line_no}: {exc}") from exc
                segment_ids.append(line[0])
                labels.append(line[1])
            # a cut-off store would silently drop songs from what is fit or scored
            if len(segment_ids) < n_rows or next(reader, None) is not None:
                raise CorruptArtifact(f"{path.name} does not hold the {n_rows} rows its sidecar records")
        finite = np.isfinite(X)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise CorruptArtifact(f"{path.name} line {row + 2}: c{col} is {float(X[row, col])}")
        return FeatureTable(
            segment_ids=segment_ids,
            labels=np.asarray(labels, dtype=str),
            X=X,
            mfcc=config,
            plan=plan,
        )
    except UnicodeDecodeError as exc:
        # the file is decoded in blocks, so the failing line is not known here
        raise CorruptArtifact(f"{path.name} is not UTF-8 text ({exc.reason})") from exc
    except (csv.Error, ValidationError) as exc:
        raise CorruptArtifact(f"store {path.name} is corrupt: {exc}") from exc


def write_correlation_csv(matrix, path) -> None:
    """Emit a coefficient-by-coefficient correlation matrix with labels."""
    matrix = np.asarray(matrix)
    names = [f"c{i}" for i in range(matrix.shape[0])]
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([""] + names)
        for name, row in zip(names, matrix):
            writer.writerow([name] + [repr(float(v)) for v in row])
