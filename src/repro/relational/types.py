"""Attribute types and a size model for relational values.

The library needs a size model because the paper's evaluation reports the
*amount of data accessed* (``#data``) and the *bytes shipped* (``comm``).
We count values during execution and convert them to bytes with
:func:`value_size`, which approximates an on-the-wire encoding: fixed eight
bytes for numerics, length plus a small header for strings.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple, Optional, Sequence, Tuple

from repro.errors import TypeMismatchError

Value = Any
Row = Tuple[Value, ...]


class AttrType(enum.Enum):
    """Supported attribute types.

    Dates are represented as ISO ``YYYY-MM-DD`` strings so lexicographic
    comparison coincides with chronological order; this mirrors how the
    simplified TPC-H queries compare date literals.
    """

    INT = "int"
    FLOAT = "float"
    STR = "str"
    DATE = "date"
    BOOL = "bool"

    @property
    def python_type(self) -> type:
        return _PYTHON_TYPES[self]

    def validate(self, value: Value) -> None:
        """Raise :class:`TypeMismatchError` if ``value`` has the wrong type.

        ``None`` is accepted for every type (SQL NULL).
        """
        if value is None:
            return
        expected = _PYTHON_TYPES[self]
        if expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeMismatchError(
                    f"expected numeric for {self.name}, got {value!r}"
                )
            return
        if expected is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeMismatchError(
                    f"expected int for {self.name}, got {value!r}"
                )
            return
        if not isinstance(value, expected):
            raise TypeMismatchError(
                f"expected {expected.__name__} for {self.name}, got {value!r}"
            )


_PYTHON_TYPES = {
    AttrType.INT: int,
    AttrType.FLOAT: float,
    AttrType.STR: str,
    AttrType.DATE: str,
    AttrType.BOOL: bool,
}

_STRING_HEADER_BYTES = 4
_NUMERIC_BYTES = 8
_BOOL_BYTES = 1
_NULL_BYTES = 1


def value_size(value: Value) -> int:
    """Return the modeled size in bytes of a single relational value."""
    if value is None:
        return _NULL_BYTES
    if isinstance(value, bool):
        return _BOOL_BYTES
    if isinstance(value, (int, float)):
        return _NUMERIC_BYTES
    if isinstance(value, str):
        return _STRING_HEADER_BYTES + len(value)
    if isinstance(value, bytes):
        return _STRING_HEADER_BYTES + len(value)
    raise TypeMismatchError(f"unsupported value type: {type(value).__name__}")


_NONE_TYPE = type(None)


def row_size(row: Row) -> int:
    """Return the modeled size in bytes of a tuple of values.

    ``sum(value_size(v) for v in row)`` in one loop: the meter sizes
    every value of every intermediate, so the six exact types relational
    values have are dispatched on inline and anything else (an ``int``
    subclass, an unsupported type) takes :func:`value_size`, which stays
    the definition.
    """
    total = 0
    for value in row:
        kind = type(value)
        if kind is float or kind is int:
            total += _NUMERIC_BYTES
        elif kind is str or kind is bytes:
            total += _STRING_HEADER_BYTES + len(value)
        elif kind is _NONE_TYPE:
            total += _NULL_BYTES
        elif kind is bool:
            total += _BOOL_BYTES
        else:
            total += value_size(value)
    return total


class RowSizing(NamedTuple):
    """:func:`row_size` of a row *proven* to hold exactly its declared
    kinds — no NULL, no bool in an INT column, no int in a FLOAT one:
    ``fixed`` bytes plus ``len`` of the string at each of ``strings``
    (the modeled ``4 + len(chars)``; the header is in ``fixed``, and the
    UTF-8 length never enters)."""

    fixed: int
    strings: Tuple[int, ...]

    def followed_by(self, width: int, other: "RowSizing") -> "RowSizing":
        """Sizing of ``row + other_row`` for rows of ``width`` values."""
        return RowSizing(
            self.fixed + other.fixed,
            self.strings + tuple(width + p for p in other.strings),
        )


def row_sizing(kinds: Sequence[AttrType]) -> RowSizing:
    """The :class:`RowSizing` of rows declared to hold ``kinds``."""
    fixed = 0
    strings = []
    for position, kind in enumerate(kinds):
        python_type = _PYTHON_TYPES[kind]
        if python_type is str:
            fixed += _STRING_HEADER_BYTES
            strings.append(position)
        elif python_type is bool:
            fixed += _BOOL_BYTES
        else:
            fixed += _NUMERIC_BYTES
    return RowSizing(fixed, tuple(strings))


def infer_type(value: Value) -> Optional[AttrType]:
    """Infer the :class:`AttrType` of a Python value, or ``None`` for NULL."""
    if value is None:
        return None
    if isinstance(value, bool):
        return AttrType.BOOL
    if isinstance(value, int):
        return AttrType.INT
    if isinstance(value, float):
        return AttrType.FLOAT
    if isinstance(value, str):
        return AttrType.STR
    raise TypeMismatchError(f"cannot infer type of {value!r}")
