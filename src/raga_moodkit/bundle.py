"""Trained-pipeline artifact: classifier envelope plus scaler, feature
fingerprint, split record and headline metrics, saved as one JSON file."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Literal

import numpy as np

from .audio import SegmentPlan
from .base import check_value, read_json
from .catalog import FeatureScaler
from .errors import CorruptArtifact, DataError, ValidationError
from .mfcc import MfccConfig
from .models.base import BaseClassifier
from .models.serialize import from_envelope, to_envelope

BUNDLE_FORMAT_VERSION = 1

#: Rows per scoring call in ``ModelBundle.predict_scores``; bounds the scaled
#: copy and the model's per-row temporaries (an SVM's kernel rows, a kNN's
#: distance rows) whatever the height of the table.
_BLOCK_ROWS = 1024

#: A split's ``roles``: each recorded row id's side, with at least one "val" where any row is recorded.
_ROLES = Annotated[dict, ('"train" or "val" per row id, with at least one "val"', lambda roles: all(
    side in ("train", "val") for side in roles.values()) and (not roles or "val" in roles.values()))]


@dataclass
class ModelBundle:
    model: BaseClassifier
    scaler: FeatureScaler | None
    feature_fingerprint: dict
    split: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        # the feature setup the training rows were made with, checked by its
        # dataclasses; None where the bundle records none
        self.mfcc = MfccConfig.from_record(self.feature_fingerprint) if self.feature_fingerprint else None
        self.plan = SegmentPlan(self.config["plan"]) if "plan" in self.config else None

    @property
    def family(self) -> str:
        return self.model.family

    def check_table(self, table) -> None:
        """Refuse feature rows made with other MFCC settings or cut by another
        segment plan than the model's training rows; a bundle that records
        neither takes no rows."""
        if self.mfcc is None or self.plan is None:
            raise DataError("the model bundle records no MFCC settings or no segment plan")
        if table.mfcc != self.mfcc:
            raise DataError(
                "feature configuration differs from the one the model was trained on; "
                f"model={self.feature_fingerprint} features={table.mfcc.get_params()}"
            )
        if table.plan != self.plan:
            raise DataError(
                f"features cut by segment plan {table.plan.describe()}; the model's is {self.plan.describe()}"
            )

    def predict_scores(self, X) -> np.ndarray:
        """Class scores per row, ``_BLOCK_ROWS`` rows per call; each block is
        checked and scaled on its own. A table of at most one block is one
        call. A taller table's last block is its last ``_BLOCK_ROWS`` rows, so
        every call scores a full block and no short remainder goes down
        another BLAS path."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or len(X) <= _BLOCK_ROWS:
            return self._score_block(X)
        scores = np.empty((len(X), len(self.model.classes_)))
        for start in range(0, len(X), _BLOCK_ROWS):
            start = min(start, len(X) - _BLOCK_ROWS)
            scores[start : start + _BLOCK_ROWS] = self._score_block(X[start : start + _BLOCK_ROWS])
        return scores

    def predict(self, X) -> np.ndarray:
        """The argmax of ``predict_scores``, ties to the earliest class."""
        return self.model.classes_[np.argmax(self.predict_scores(X), axis=1)]

    def _score_block(self, X) -> np.ndarray:
        return self.model.predict_scores(self.scaler.transform(X) if self.scaler is not None else X)

    def to_dict(self) -> dict:
        return {
            "format_version": BUNDLE_FORMAT_VERSION,
            "model": to_envelope(self.model),
            "scaler": self.scaler.to_dict() if self.scaler is not None else None,
            "feature_fingerprint": self.feature_fingerprint,
            "split": self.split,
            "metrics": self.metrics,
            "config": self.config,
        }

    #: The record ``to_dict`` writes; ``model`` and ``scaler`` are checked by their own decoders.
    _RECORD = {"format_version": Literal[BUNDLE_FORMAT_VERSION], "model": {}, "scaler": dict | None, "metrics?": {},
               "feature_fingerprint?": MfccConfig._param_types(), "split?": {"roles?": _ROLES},
               "config?": {"plan?": SegmentPlan._param_types()["cuts"]}}

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelBundle":
        """Decode a bundle that passes ``_RECORD`` and check that its parts
        agree: the feature setup is recorded, the model's ``F`` features are
        the MFCC coefficients and the scaler's width, and the model scores
        one row over its whole class order."""
        check_value(payload, cls._RECORD)
        model, scaler = from_envelope(payload["model"], "model"), payload["scaler"]
        scaler = None if scaler is None else FeatureScaler.from_dict(scaler, {"F": model.n_features_}, "scaler")
        optional = {key: payload.get(key, {}) for key in ("feature_fingerprint", "split", "metrics", "config")}
        bundle = cls(model, scaler, **optional)
        if bundle.mfcc is None or bundle.plan is None:
            raise ValidationError(
                "the model bundle records no MFCC settings (feature_fingerprint) or no segment plan (config.plan)")
        if bundle.mfcc.n_coeffs != model.n_features_:
            raise ValidationError(f"{model.n_features_} model features, {bundle.mfcc.n_coeffs} MFCC coefficients")
        scores = bundle.predict_scores(np.zeros((1, bundle.model.n_features_)))
        if scores.shape != (1, len(bundle.model.classes_)) or not np.isclose(scores.sum(), 1.0):
            raise ValidationError(
                f"model scores {scores.tolist()} do not sum to 1 over its "
                f"{len(bundle.model.classes_)} classes"
            )
        return bundle

    @classmethod
    def load(cls, path) -> "ModelBundle":
        try:
            return cls.from_dict(read_json(Path(path)))
        except (OverflowError, ValidationError) as exc:
            raise CorruptArtifact(f"bundle {Path(path).name} is corrupt: {exc}") from exc
