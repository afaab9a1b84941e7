"""Versioned JSON model envelope.

Layout: ``{"format_version", "family", "class_order", "params"}``. ``params``
holds the family's constructor parameters under their own names plus its
fitted state; all numeric arrays in it travel base64-encoded as
little-endian float64 (integer-valued arrays included) alongside their shape.
A stored array holds finite values only.
"""
from __future__ import annotations

import base64

import numpy as np

from ..errors import ValidationError

FORMAT_VERSION = 1


def encode_array(arr) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii"),
    }


def decode_array(payload: dict) -> np.ndarray:
    raw = base64.b64decode(payload["data"])
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(payload["shape"])
    if not np.isfinite(arr).all():
        raise ValidationError("a stored array holds NaN or infinity")
    return arr


def to_envelope(model) -> dict:
    from ..base import check_fitted

    check_fitted(model, "classes_")
    return {
        "format_version": FORMAT_VERSION,
        "family": model.family,
        "class_order": [str(c) for c in model.classes_],
        "params": model._encode_params(),
    }


def from_envelope(envelope: dict):
    from . import FAMILIES

    version = envelope.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported model format_version {version!r}")
    family = envelope.get("family")
    if family not in FAMILIES:
        raise ValidationError(f"unknown model family {family!r}")
    model = FAMILIES[family]()
    model.classes_ = np.asarray(envelope["class_order"], dtype=str)
    model._decode_params(envelope["params"])
    return model
