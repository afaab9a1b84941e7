"""Estimator plumbing: parameter contracts and input validation helpers."""
from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import numbers
import typing
from typing import Annotated

import numpy as np

from .errors import NotFitted, ValidationError

# Field annotations carrying a range rule: (text for errors, test). Every
# test is a comparison that NaN fails; the float ones fail infinity too.
PositiveInt = Annotated[int, (">= 1", lambda v: v >= 1)]
NonNegativeInt = Annotated[int, (">= 0", lambda v: v >= 0)]
FinitePositiveFloat = Annotated[float, ("finite and > 0", lambda v: 0 < v < math.inf)]
FiniteNonNegativeFloat = Annotated[float, ("finite and >= 0", lambda v: 0 <= v < math.inf)]


def _has_type(value, annotation) -> bool:
    """Whether ``value`` fits a field annotation: ``int``, ``float`` (which
    takes an int too; neither takes a bool), ``str``, ``dict``, a ``Literal``
    of strings, a union of those with ``None``, ``tuple[T, ...]`` or
    ``tuple[A, B]`` (a list or tuple of ``T``, or of one ``A`` and one ``B``),
    or any of these under ``Annotated`` with rules the value passes."""
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is Annotated:
        return _has_type(value, args[0]) and all(test(value) for _, test in args[1:])
    if origin is tuple:
        if not isinstance(value, (tuple, list)):
            return False
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(value) == len(items) and all(map(_has_type, value, items))
    if origin is typing.Literal:
        return isinstance(value, str) and value in args
    numeric = {int: numbers.Integral, float: numbers.Real}
    return any(
        isinstance(value, numeric[option]) and not isinstance(value, bool)
        if option in numeric
        else isinstance(value, option)
        for option in args or (annotation,)
    )


def _describe(annotation) -> str:
    """An annotation as error text, with the text of each nested rule."""
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is Annotated:
        return f"{_describe(args[0])} ({' and '.join(text for text, _ in args[1:])})"
    if origin is tuple:
        return "tuple[" + ", ".join("..." if a is Ellipsis else _describe(a) for a in args) + "]"
    if origin is typing.Literal:
        return f"one of {args}"
    return inspect.formatannotation(annotation)


class CheckedFields:
    """A dataclass whose field list is its whole contract: names, types,
    closed choices as ``Literal`` and numeric ranges as ``Annotated`` rules.

    The constructor passes every field through ``_check_params``, so an
    instance holds no value outside its contract. Frozen dataclasses may
    derive from it; a subclass's own ``__post_init__`` calls this one first
    and then checks only relations between fields.
    """

    def __post_init__(self):
        for name, value in self._check_params(**self.get_params()).items():
            object.__setattr__(self, name, value)

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
                raise ValidationError(
                    f"{cls.__name__} parameter {name}={value!r} must be {_describe(annotation)}"
                )
            for text, test in rules:
                if not test(value):
                    raise ValidationError(f"{cls.__name__} parameter {name}={value!r} must be {text}")
            checked[name] = tuple(value) if isinstance(value, list) else value
        return checked

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_types()}


class ParamsMixin(CheckedFields):
    """Adds ``set_params``, which checks as the constructor does, so an
    estimator built or changed through them holds no value outside its
    contract and ``fit`` need not check one. Fitted state uses
    trailing-underscore attributes."""

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
