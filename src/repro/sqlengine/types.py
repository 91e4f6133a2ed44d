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
from typing import Any


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

    def validate(self, value: Any) -> bool:
        """Return True when ``value`` is a legal instance of this type.

        ``None`` (SQL NULL) is legal for every type.
        """
        if value is None:
            return True
        if self is ColumnType.BIGINT or self is ColumnType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is ColumnType.FLOAT:
            if isinstance(value, bool):
                return False
            return isinstance(value, (int, float))
        if self is ColumnType.STRING:
            return isinstance(value, str)
        return False

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this type's canonical Python representation.

        Raises:
            TypeError: if the value is not coercible.
        """
        if value is None:
            return None
        if self is ColumnType.BIGINT or self is ColumnType.INT:
            if isinstance(value, bool):
                raise TypeError(f"cannot store bool in {self.value} column")
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            raise TypeError(f"cannot store {value!r} in {self.value} column")
        if self is ColumnType.FLOAT:
            if isinstance(value, bool):
                raise TypeError("cannot store bool in float column")
            if isinstance(value, (int, float)):
                result = float(value)
                if math.isnan(result):
                    raise TypeError("NaN is not storable; use NULL")
                return result
            raise TypeError(f"cannot store {value!r} in float column")
        if self is ColumnType.STRING:
            if isinstance(value, str):
                return value
            raise TypeError(f"cannot store {value!r} in string column")
        raise TypeError(f"unknown column type {self!r}")
