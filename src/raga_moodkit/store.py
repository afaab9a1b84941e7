"""Feature store: one CSV row per segment plus a self-describing sidecar.

CSV header is ``segment_id, rasa, c0..c{n-1}``. Segment ids are
``<song_id>:<cut_index>`` so rows can be grouped back to their source file.
The sidecar (``<store>.meta.json``) records the full extraction
configuration, which doubles as the fingerprint models use to refuse
mismatched features.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import SegmentPlan
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

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def song_ids(self) -> list:
        return [song_id_of(s) for s in self.segment_ids]

    @property
    def fingerprint(self) -> dict:
        return self.mfcc.as_dict()

    def select(self, index) -> "FeatureTable":
        index = np.asarray(index)
        return FeatureTable(
            segment_ids=[self.segment_ids[i] for i in index],
            labels=self.labels[index],
            X=self.X[index],
            mfcc=self.mfcc,
            plan=self.plan,
        )


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
        "mfcc": table.mfcc.as_dict(),
        "segment_plan": [list(cut) for cut in table.plan.cuts],
        "n_rows": len(table),
    }
    if extra_meta:
        meta.update(extra_meta)
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def sidecar_path(store_path) -> Path:
    return Path(str(store_path) + ".meta.json")


def read_store(path) -> FeatureTable:
    path = Path(path)
    meta_file = sidecar_path(path)
    if not meta_file.exists():
        raise ValidationError(f"missing sidecar {meta_file.name}; the store is not self-describing")
    try:
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CorruptArtifact(f"sidecar {meta_file.name} is not valid JSON: {exc}") from exc
    if meta.get("format_version") != STORE_FORMAT_VERSION:
        raise ValidationError(f"unsupported store format_version {meta.get('format_version')!r}")
    config = MfccConfig(**meta["mfcc"])
    plan = SegmentPlan(tuple(tuple(cut) for cut in meta["segment_plan"]))

    segment_ids: list[str] = []
    labels: list[str] = []
    rows: list[list[float]] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        expected = ["segment_id", "rasa"] + [f"c{i}" for i in range(config.n_coeffs)]
        if header != expected:
            raise ValidationError(f"store header mismatch: expected {expected[:3]}..., got {header}")
        for line_no, line in enumerate(reader, start=2):
            if len(line) != len(expected):
                raise CorruptArtifact(
                    f"{path.name} line {line_no}: {len(line)} fields, expected {len(expected)}"
                )
            try:
                rows.append([float(v) for v in line[2:]])
            except ValueError as exc:
                raise CorruptArtifact(f"{path.name} line {line_no}: {exc}") from exc
            segment_ids.append(line[0])
            labels.append(line[1])
    return FeatureTable(
        segment_ids=segment_ids,
        labels=np.asarray(labels, dtype=str),
        X=np.asarray(rows, dtype=np.float64),
        mfcc=config,
        plan=plan,
    )


def write_correlation_csv(matrix, path) -> None:
    """Emit a coefficient-by-coefficient correlation matrix with labels."""
    matrix = np.asarray(matrix)
    names = [f"c{i}" for i in range(matrix.shape[0])]
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([""] + names)
        for name, row in zip(names, matrix):
            writer.writerow([name] + [repr(float(v)) for v in row])
