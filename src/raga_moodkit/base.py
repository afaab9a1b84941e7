"""Estimator plumbing: parameter contracts and input validation helpers."""
from __future__ import annotations

import dataclasses
import functools
import inspect
import numbers
import typing
from typing import Annotated

import numpy as np

from .errors import NotFitted, ValidationError

# Field annotations carrying a range rule: (text for errors, test). Every
# test is a comparison that NaN fails.
PositiveInt = Annotated[int, (">= 1", lambda v: v >= 1)]
NonNegativeInt = Annotated[int, (">= 0", lambda v: v >= 0)]
PositiveFloat = Annotated[float, ("> 0", lambda v: v > 0)]
NonNegativeFloat = Annotated[float, (">= 0", lambda v: v >= 0)]


def _has_type(value, annotation) -> bool:
    """Whether ``value`` fits a field annotation: ``int``, ``float`` (which
    takes an int too; neither takes a bool), ``str``, a ``Literal`` of
    strings, a union of those with ``None``, or ``tuple[T, ...]`` (a list or
    tuple of ``T``)."""
    origin = typing.get_origin(annotation)
    if origin is tuple:
        item = typing.get_args(annotation)[0]
        return isinstance(value, (tuple, list)) and all(_has_type(v, item) for v in value)
    if origin is typing.Literal:
        return isinstance(value, str) and value in typing.get_args(annotation)
    numeric = {int: numbers.Integral, float: numbers.Real}
    return any(
        isinstance(value, numeric[option]) and not isinstance(value, bool)
        if option in numeric
        else isinstance(value, option)
        for option in typing.get_args(annotation) or (annotation,)
    )


class ParamsMixin:
    """``get_params``/``set_params`` over the fields of a dataclass.

    A subclass's field list is its whole parameter contract: names, types,
    closed choices as ``Literal`` and numeric ranges as ``Annotated`` rules.
    The constructor and ``set_params`` both pass through ``_check_params``,
    so an estimator built or changed through them holds no value outside
    its contract and ``fit`` need not check one. Fitted state uses
    trailing-underscore attributes.
    """

    def __post_init__(self):
        self.set_params(**self.get_params())

    @classmethod
    @functools.cache
    def _param_types(cls) -> dict:
        """Field names, in declaration order, to their annotations."""
        hints = typing.get_type_hints(cls, include_extras=True)
        return {f.name: hints[f.name] for f in dataclasses.fields(cls)}

    @classmethod
    def _check_params(cls, **params) -> dict:
        """Refuse unknown names, wrong types and values outside a range rule;
        return the values with lists stored as tuples."""
        types = cls._param_types()
        checked = {}
        for name, value in params.items():
            if name not in types:
                raise ValidationError(
                    f"unknown parameter {name!r} for {cls.__name__}; valid parameters: {sorted(types)}"
                )
            hint = types[name]
            annotation, *rules = typing.get_args(hint) if typing.get_origin(hint) is Annotated else (hint,)
            if not _has_type(value, annotation):
                expected = (
                    f"one of {typing.get_args(annotation)}"
                    if typing.get_origin(annotation) is typing.Literal
                    else inspect.formatannotation(annotation)
                )
                raise ValidationError(f"{cls.__name__} parameter {name}={value!r} must be {expected}")
            for text, test in rules:
                if not test(value):
                    raise ValidationError(f"{cls.__name__} parameter {name}={value!r} must be {text}")
            checked[name] = tuple(value) if isinstance(value, list) else value
        return checked

    def get_params(self):
        return {name: getattr(self, name) for name in self._param_types()}

    def set_params(self, **params):
        """Set parameters by name; nothing is set unless every value passes."""
        for name, value in self._check_params(**params).items():
            setattr(self, name, value)
        return self


def as_float_matrix(X, name="X"):
    """Coerce to a finite 2-D float64 array."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def as_label_array(y, n_rows=None, name="y"):
    """Coerce labels to a 1-D string array, optionally checking the row count."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if n_rows is not None and len(arr) != n_rows:
        raise ValidationError(f"{name} has {len(arr)} labels for {n_rows} rows")
    return arr.astype(str)


def check_fitted(estimator, attribute):
    if not hasattr(estimator, attribute):
        raise NotFitted(f"{type(estimator).__name__} is not fitted; call fit first")
