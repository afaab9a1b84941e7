"""Trained-pipeline artifact: classifier envelope plus scaler, feature
fingerprint, split record and headline metrics, saved as one JSON file."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .catalog import FeatureScaler
from .errors import CorruptArtifact, ScalerMismatch, ValidationError
from .models import from_envelope, to_envelope
from .models.base import BaseClassifier

BUNDLE_FORMAT_VERSION = 1


@dataclass
class ModelBundle:
    model: BaseClassifier
    scaler: FeatureScaler | None
    feature_fingerprint: dict
    split: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def family(self) -> str:
        return self.model.family

    def check_fingerprint(self, fingerprint: dict) -> None:
        if self.feature_fingerprint and fingerprint != self.feature_fingerprint:
            raise ScalerMismatch(
                "feature configuration differs from the one the model was trained on; "
                f"model={self.feature_fingerprint} features={fingerprint}"
            )

    def transform(self, X) -> np.ndarray:
        return self.scaler.transform(X) if self.scaler is not None else np.asarray(X, dtype=np.float64)

    def predict_scores(self, X) -> np.ndarray:
        return self.model.predict_scores(self.transform(X))

    def predict(self, X) -> np.ndarray:
        return self.model.predict(self.transform(X))

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

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelBundle":
        if payload.get("format_version") != BUNDLE_FORMAT_VERSION:
            raise ValidationError(
                f"unsupported bundle format_version {payload.get('format_version')!r}"
            )
        scaler = payload.get("scaler")
        return cls(
            model=from_envelope(payload["model"]),
            scaler=FeatureScaler.from_dict(scaler) if scaler else None,
            feature_fingerprint=payload.get("feature_fingerprint", {}),
            split=payload.get("split", {}),
            metrics=payload.get("metrics", {}),
            config=payload.get("config", {}),
        )

    @classmethod
    def load(cls, path) -> "ModelBundle":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CorruptArtifact(f"bundle {Path(path).name} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)
