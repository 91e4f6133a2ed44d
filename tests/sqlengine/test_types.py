"""Unit tests for column types: widths and coercion."""

import pytest

from repro.sqlengine.types import ColumnType


class TestDefaultWidths:
    def test_bigint_is_eight_bytes(self):
        assert ColumnType.BIGINT.default_width == 8

    def test_int_is_four_bytes(self):
        assert ColumnType.INT.default_width == 4

    def test_float_is_eight_bytes(self):
        assert ColumnType.FLOAT.default_width == 8

    def test_string_default_models_char16(self):
        assert ColumnType.STRING.default_width == 16


class TestCoerce:
    def test_null_passes_through(self):
        assert ColumnType.FLOAT.coerce(None) is None

    def test_int_passthrough(self):
        assert ColumnType.INT.coerce(7) == 7

    def test_integral_float_coerces_to_int(self):
        value = ColumnType.BIGINT.coerce(4.0)
        assert value == 4
        assert isinstance(value, int)

    def test_fractional_float_rejected_for_int(self):
        with pytest.raises(TypeError):
            ColumnType.INT.coerce(4.5)

    def test_bool_rejected_for_int(self):
        with pytest.raises(TypeError):
            ColumnType.INT.coerce(True)

    def test_int_coerces_to_float(self):
        value = ColumnType.FLOAT.coerce(3)
        assert value == 3.0
        assert isinstance(value, float)

    def test_nan_rejected(self):
        with pytest.raises(TypeError):
            ColumnType.FLOAT.coerce(float("nan"))

    def test_bool_rejected_for_float(self):
        with pytest.raises(TypeError):
            ColumnType.FLOAT.coerce(True)

    def test_string_passthrough(self):
        assert ColumnType.STRING.coerce("abc") == "abc"

    def test_non_string_rejected_for_string(self):
        with pytest.raises(TypeError):
            ColumnType.STRING.coerce(9)

    def test_string_rejected_for_numeric(self):
        with pytest.raises(TypeError):
            ColumnType.FLOAT.coerce("3.5")
