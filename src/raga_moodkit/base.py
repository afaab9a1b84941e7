"""Estimator plumbing: parameter contracts and input validation helpers."""
from __future__ import annotations

import csv
import dataclasses
import functools
import inspect
import json
import numbers
import reprlib
import sys
import typing
from typing import Annotated

import numpy as np

from .errors import CorruptArtifact, ValidationError

# Field annotations carrying a range rule: (text for errors, test). Every
# test is a comparison that NaN fails; the float ones fail infinity, and an
# integer too large for a float, too.
_MAX = sys.float_info.max
PositiveInt = Annotated[int, (">= 1", lambda v: v >= 1)]
NonNegativeInt = Annotated[int, (">= 0", lambda v: v >= 0)]
FiniteFloat = Annotated[float, ("finite", lambda v: -_MAX <= v <= _MAX)]
FinitePositiveFloat = Annotated[float, ("finite and > 0", lambda v: 0 < v <= _MAX)]
FiniteNonNegativeFloat = Annotated[float, ("finite and >= 0", lambda v: 0 <= v <= _MAX)]
_NUMERIC = {int: numbers.Integral, float: numbers.Real}


def int_in(low: int, high: int):
    """An ``int`` annotation whose rule keeps it in [low, high]."""
    return Annotated[int, (f"in [{low}, {high}]", lambda v: low <= v <= high)]


def _has_type(value, annotation) -> bool:
    """Whether ``value`` fits a field annotation: ``int``, ``float`` (which
    takes an int too; neither takes a bool), ``str``, ``dict``, a ``Literal``
    of strings or ints, a union of those with ``None``, ``tuple[T, ...]`` or
    ``tuple[A, B]`` (a list or tuple of ``T``, or of one ``A`` and one ``B``),
    or any of these under ``Annotated`` with rules the value passes."""
    if annotation is int or annotation is float:  # the most frequent case: a stored shape's or a scaler's values
        return isinstance(value, _NUMERIC[annotation]) and not isinstance(value, bool)
    origin = typing.get_origin(annotation)
    if origin is None:  # a plain class: str, dict, list
        return isinstance(value, annotation)
    args = typing.get_args(annotation)
    if origin is Annotated:
        return _has_type(value, args[0]) and all(test(value) for _, test in args[1:])
    if origin is tuple:
        if not isinstance(value, (tuple, list)):
            return False
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(value) == len(items) and all(map(_has_type, value, items))
    if origin is typing.Literal:
        return isinstance(value, (str, int)) and not isinstance(value, bool) and value in args
    return any(_has_type(value, option) if option in _NUMERIC else isinstance(value, option)
               for option in args or (annotation,))


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


def check_value(value, kind, path: str = "") -> None:
    """Check parsed JSON against ``kind``: a record (each key's kind; a key ending in ``?`` may be absent, and
    keys it does not name are ignored), ``[kind]`` (a list of that kind) or an annotation ``_has_type`` takes.
    A fault raises ``ValidationError`` naming its path, as in ``scaler.kind: missing``."""
    container = type(kind) if isinstance(kind, (dict, list)) else None
    if not (isinstance(value, container) if container else _has_type(value, kind)):
        words = {dict: "an object", list: "a list"}
        raise ValidationError(f"{path or 'top level'}: expected {words.get(container) or _describe(kind)}, "
                              f"got {container and words.get(type(value)) or reprlib.repr(value)}")
    for key, child in kind.items() if container is dict else ():
        name = key.rstrip("?")
        where = f"{path}.{name}" if path else name
        if name in value:
            if isinstance(child, (dict, list)) or not _has_type(value[name], child):  # a passing leaf needs no call
                check_value(value[name], child, where)
        elif name == key:
            raise ValidationError(f"{where}: missing")
    for i, item in enumerate(value) if container is list else ():
        check_value(item, kind[0], f"{path}[{i}]")


def read_json(path):
    """A JSON file's content; text that is not UTF-8 JSON raises ``ValidationError``."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, Python's int digit limit
        raise ValidationError(f"{path.name} is not UTF-8 JSON text: {exc}") from exc


def read_csv(path):
    """Each record of a CSV file with the number of the line it ends on, the
    file read one line of bytes at a time (a line ends in LF, CR LF or CR).
    A line that is not UTF-8, or text the ``csv`` module refuses (a field
    past its size limit, say), raises ``CorruptArtifact`` naming ``file:line``."""
    with path.open("rb") as handle:
        reader = csv.reader(line.decode("utf-8") for raw in handle for line in raw.splitlines(keepends=True))
        try:
            for fields in reader:
                yield reader.line_num, fields
        except UnicodeDecodeError as exc:  # raised while ``reader`` fetched the line after its last
            raise CorruptArtifact(f"{path.name}:{reader.line_num + 1}: not UTF-8 text ({exc.reason})") from exc
        except csv.Error as exc:
            raise CorruptArtifact(f"{path.name}:{reader.line_num}: not CSV text ({exc})") from exc


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as UTF-8 CSV, as ``read_csv`` reads it."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


class CheckedFields:
    """A dataclass whose field list is its whole contract: names, types,
    closed choices as ``Literal`` and numeric ranges as ``Annotated`` rules.

    The constructor passes every field through ``_check_params``, so an
    instance holds no value outside its contract. Frozen dataclasses may
    derive from it; a subclass's own ``__post_init__`` calls this one first
    and then checks only relations between fields.
    """

    def __post_init__(self):
        self._set_checked(self._check_params(**self.get_params()))

    @classmethod
    @functools.cache
    def _param_types(cls) -> dict:
        """Field names, in declaration order, to their annotations."""
        hints = typing.get_type_hints(cls, include_extras=True)
        return {f.name: hints[f.name] for f in dataclasses.fields(cls)}

    @classmethod
    def _check_params(cls, **params) -> dict:
        """Refuse unknown names and values outside their annotations; return ``params``."""
        types = cls._param_types()
        if unknown := sorted(params.keys() - types.keys()):
            raise ValidationError(
                f"unknown parameter {unknown[0]!r} for {cls.__name__}; valid parameters: {sorted(types)}")
        check_value(params, {name: types[name] for name in params}, cls.__name__)
        return params

    def _set_checked(self, params: dict) -> None:
        """Set values that passed their annotations, lists stored as tuples."""
        for name, value in params.items():
            object.__setattr__(self, name, tuple(value) if isinstance(value, list) else value)

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_types()}


class ParamsMixin(CheckedFields):
    """Adds ``set_params``, which checks as the constructor does, so an
    estimator built or changed through them holds no value outside its
    contract and ``fit`` need not check one. Fitted state uses
    trailing-underscore attributes."""

    def set_params(self, **params):
        """Set parameters by name; nothing is set unless every value passes."""
        self._set_checked(self._check_params(**params))
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
        raise ValidationError(f"{type(estimator).__name__} is not fitted; call fit first")
