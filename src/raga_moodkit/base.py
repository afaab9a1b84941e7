"""Estimator plumbing: parameter introspection and input validation helpers."""
from __future__ import annotations

import functools
import inspect
import numbers
import typing

import numpy as np

from .errors import NotFitted, ValidationError


def _has_type(value, annotation) -> bool:
    """Whether ``value`` fits a constructor annotation: ``int``, ``float``
    (which takes an int too), ``str``, a union of those with ``None``, or
    ``tuple[T, ...]`` (a list or tuple of ``T``)."""
    if typing.get_origin(annotation) is tuple:
        item = typing.get_args(annotation)[0]
        return isinstance(value, (tuple, list)) and all(_has_type(v, item) for v in value)
    kinds = {int: numbers.Integral, float: numbers.Real}
    return any(
        isinstance(value, kinds.get(option, option))
        for option in typing.get_args(annotation) or (annotation,)
    )


class ParamsMixin:
    """``get_params``/``set_params`` following the scikit-learn convention.

    The constructor signature is the only list of an estimator's parameters:
    ``set_params`` refuses names it lacks and values that do not fit its
    annotations. Constructor arguments are stored verbatim on the instance
    under the same names; fitted state uses trailing-underscore attributes.
    """

    @classmethod
    @functools.cache
    def _param_annotations(cls) -> dict:
        """Constructor parameter names, in signature order, to their annotations."""
        sig = inspect.signature(cls.__init__, eval_str=True)
        return {
            p.name: p.annotation
            for p in sig.parameters.values()
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        }

    def get_params(self):
        return {name: getattr(self, name) for name in self._param_annotations()}

    def set_params(self, **params):
        """Set constructor parameters by name; a list given for a tuple
        parameter is stored as a tuple."""
        annotations = self._param_annotations()
        for name, value in params.items():
            if name not in annotations:
                raise ValidationError(
                    f"unknown parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(annotations)}"
                )
            if not _has_type(value, annotations[name]):
                expected = inspect.formatannotation(annotations[name])
                raise ValidationError(
                    f"{type(self).__name__} parameter {name}={value!r} must be {expected}"
                )
            setattr(self, name, tuple(value) if isinstance(value, list) else value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


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
