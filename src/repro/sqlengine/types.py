"""Column data types for the mini SQL engine.

The engine is deliberately small: four scalar types cover everything the
SDSS-style astronomy workload needs.  Each type knows its on-disk width in
bytes, which is what the yield model uses to attribute query-result bytes
to individual columns (Section 6 of the paper divides a join query's yield
among columns "based on a ratio of storage size of the attribute to the
total storage sizes of all columns referenced in the query").
"""

from __future__ import annotations

import enum
import math
from typing import Any, Callable, Dict


class ColumnType(enum.Enum):
    """Scalar types supported by the engine.

    The byte widths follow SQL Server conventions used by the SDSS archive:
    BIGINT identifiers are 8 bytes, double-precision reals are 8 bytes,
    INT codes are 4 bytes, and strings are modeled with a fixed declared
    width (CHAR(n) semantics) so that object sizes are deterministic.
    """

    BIGINT = "bigint"
    INT = "int"
    FLOAT = "float"
    STRING = "string"

    @property
    def default_width(self) -> int:
        """Storage width in bytes for fixed-width types (strings need a
        declared width; their default models a short CHAR(16))."""
        widths = {
            ColumnType.BIGINT: 8,
            ColumnType.INT: 4,
            ColumnType.FLOAT: 8,
            ColumnType.STRING: 16,
        }
        return widths[self]

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this type's canonical Python representation.

        Dispatches to :attr:`coercer`, which passes a canonical value (NULL,
        exact ``int``/``str``, non-NaN ``float``) as is and checks the rest.

        Raises:
            TypeError: if the value is not coercible.
        """
        return _COERCERS[self](value)

    @property
    def coercer(self) -> Callable[[Any], Any]:
        """:meth:`coerce` for this type, to resolve once per column."""
        return _COERCERS[self]


def _coerce_integer(value: Any, name: str) -> Any:
    if isinstance(value, bool):
        raise TypeError(f"cannot store bool in {name} column")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"cannot store {value!r} in {name} column")


def _coerce_bigint(value: Any) -> Any:
    if type(value) is int or value is None:
        return value
    return _coerce_integer(value, "bigint")


def _coerce_int(value: Any) -> Any:
    if type(value) is int or value is None:
        return value
    return _coerce_integer(value, "int")


def _coerce_float(value: Any) -> Any:
    if (type(value) is float and value == value) or value is None:
        return value
    if isinstance(value, bool):
        raise TypeError("cannot store bool in float column")
    if isinstance(value, (int, float)):
        result = float(value)
        if math.isnan(result):
            raise TypeError("NaN is not storable; use NULL")
        return result
    raise TypeError(f"cannot store {value!r} in float column")


def _coerce_string(value: Any) -> Any:
    if isinstance(value, str) or value is None:
        return value
    raise TypeError(f"cannot store {value!r} in string column")


_COERCERS: Dict[ColumnType, Callable[[Any], Any]] = {
    ColumnType.BIGINT: _coerce_bigint,
    ColumnType.INT: _coerce_int,
    ColumnType.FLOAT: _coerce_float,
    ColumnType.STRING: _coerce_string,
}
