"""Versioned JSON model envelope.

Layout: ``{"format_version", "family", "class_order", "params"}``, where
``class_order`` is distinct labels in sorted order, as ``fit`` writes it, and
``params`` the family's constructor parameters plus its fitted state. Numeric
arrays travel base64-encoded as little-endian float64 with their shape, and
hold finite values only. Each family declares their shapes in symbols: ``C``
is the class count, bound from ``class_order``; ``F`` the feature count; ``N``
a length shared within one family's state (kNN rows, one tree's nodes, one
SVM pair's support vectors). A dimension may also be a fixed size or
``"F+1"``. An ``Index`` array also declares a range, such as [0, C), and must
hold whole numbers in it; only it loads as int64. ``check_array`` holds the
shape-and-finite rule, which also checks a bundle scaler's JSON lists.
"""
from __future__ import annotations

import base64
import binascii
import math
from collections import namedtuple
from typing import Annotated, Literal

import numpy as np

from ..base import NonNegativeInt, check_fitted, check_value
from ..errors import ValidationError

FORMAT_VERSION = 1


#: Layout of whole numbers in [low, high), where a bound may be a symbol.
Index = namedtuple("Index", "shape low high")


def encode_array(arr) -> dict:
    arr = np.asarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii"),
    }


#: The record ``encode_array`` writes: base64 text and a shape numpy can hold.
ARRAY_RECORD = {"data": Annotated[str, ("ASCII", str.isascii)], "shape": Annotated[tuple[NonNegativeInt, ...], (
    "at most 32 sizes whose nonzero product is < 2**59", lambda shape: len(shape) <= 32 and math.prod(
        filter(None, shape)) < 2**59)]}


def decode_array(payload: dict, name: str = "array") -> np.ndarray:
    """The array of an ``ARRAY_RECORD``, whose data must be base64 of 8 bytes per element."""
    try:
        raw = base64.b64decode(payload["data"], validate=True)
    except binascii.Error as exc:
        raise ValidationError(f"stored {name} is not base64 text: {exc}") from exc
    if len(raw) != 8 * math.prod(payload["shape"]):
        raise ValidationError(f"stored {name} holds {len(raw)} bytes, not 8 per element of shape {payload['shape']}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(payload["shape"])


def bind_array(name: str, payload, layout, sizes: dict):
    """Decode the stored array ``name`` and check it against ``layout`` (a
    shape, an ``Index`` or a list of shapes); a new symbol binds in ``sizes``."""
    if isinstance(layout, list):
        if len(payload) != len(layout):
            raise ValidationError(f"stored {name} is not a list of {len(layout)} arrays")
        return [bind_array(f"{name}[{i}]", *entry, sizes) for i, entry in enumerate(zip(payload, layout))]
    if isinstance(layout, Index):
        arr = bind_array(name, payload, layout.shape, sizes)
        low, high = (sizes[end] if isinstance(end, str) else end for end in (layout.low, layout.high))
        if not ((low <= arr) & (arr < high) & (arr == np.floor(arr))).all():
            raise ValidationError(f"stored {name} is not all whole numbers in [{layout.low}, {layout.high})")
        return arr.astype(np.int64)
    return check_array(name, decode_array(payload, name), layout, sizes)


def check_array(name: str, arr: np.ndarray, shape, sizes: dict) -> np.ndarray:
    """Refuse a stored array that holds NaN or infinity or is not of
    ``shape``; a new symbol binds in ``sizes``."""
    if not np.isfinite(arr).all():
        raise ValidationError(f"stored {name} holds NaN or infinity")
    if arr.ndim != len(shape) or any(_bind(dim, n, sizes) != n for dim, n in zip(shape, arr.shape)):
        raise ValidationError(f"stored {name} has shape {arr.shape}, not {shape} with {sizes}")
    return arr


def _bind(dim, n: int, sizes: dict) -> int:
    """The size ``dim`` stands for, binding a new symbol to match ``n``; a count is never negative."""
    if isinstance(dim, int):
        return dim
    symbol, _, extra = dim.partition("+")
    return sizes.setdefault(symbol, max(n - int(extra or 0), 0)) + int(extra or 0)


def to_envelope(model) -> dict:
    check_fitted(model, "classes_")
    return {
        "format_version": FORMAT_VERSION,
        "family": model.family,
        "class_order": [str(c) for c in model.classes_],
        "params": model._encode_params(),
    }


def from_envelope(envelope: dict, path: str = ""):
    """The model in an envelope ``to_envelope`` wrote, found at ``path`` of its JSON file."""
    from . import FAMILIES

    check_value(envelope, {"format_version": Literal[FORMAT_VERSION], "family": Literal[tuple(FAMILIES)]}, path)
    model = FAMILIES[envelope["family"]]()
    check_value(envelope, {"params": model._params_record(), "class_order": Annotated[tuple[str, ...], (
        "distinct labels in sorted order", lambda order: list(order) == sorted(set(order)))]}, path)
    model.classes_ = np.asarray(envelope["class_order"], dtype=str)
    model._decode_params(envelope["params"])
    return model
