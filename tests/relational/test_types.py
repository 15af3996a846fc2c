import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.relational.types import (
    AttrType,
    infer_type,
    row_size,
    value_size,
)


class TestAttrType:
    def test_validate_int(self):
        AttrType.INT.validate(5)

    def test_validate_int_rejects_str(self):
        with pytest.raises(TypeMismatchError):
            AttrType.INT.validate("5")

    def test_validate_int_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            AttrType.INT.validate(True)

    def test_validate_float_accepts_int(self):
        AttrType.FLOAT.validate(5)
        AttrType.FLOAT.validate(5.5)

    def test_validate_float_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            AttrType.FLOAT.validate(False)

    def test_validate_str(self):
        AttrType.STR.validate("hello")
        with pytest.raises(TypeMismatchError):
            AttrType.STR.validate(5)

    def test_validate_date_is_string(self):
        AttrType.DATE.validate("1994-01-01")

    def test_null_always_valid(self):
        for attr_type in AttrType:
            attr_type.validate(None)

    def test_python_type(self):
        assert AttrType.INT.python_type is int
        assert AttrType.STR.python_type is str


class TestSizeModel:
    def test_numeric_sizes(self):
        assert value_size(42) == 8
        assert value_size(3.14) == 8

    def test_bool_size(self):
        assert value_size(True) == 1

    def test_null_size(self):
        assert value_size(None) == 1

    def test_string_size_scales_with_length(self):
        assert value_size("ab") == 4 + 2
        assert value_size("") == 4

    def test_row_size_sums(self):
        assert row_size((1, "ab", None)) == 8 + 6 + 1

    def test_unsupported_type(self):
        with pytest.raises(TypeMismatchError):
            value_size([1, 2])
        with pytest.raises(TypeMismatchError):
            row_size((1, [1, 2]))


class _Cause(enum.IntEnum):
    """An ``int`` subclass: not exactly ``int``, so ``row_size`` must
    hand it to ``value_size``."""

    WEATHER = 1
    CARRIER = 2


class _Flag(int):
    pass


sized_value = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True),
    st.text(max_size=20),
    st.text(alphabet="éß漢🙂", max_size=20),
    st.binary(max_size=20),
    st.sampled_from(list(_Cause)),
    st.integers(min_value=0, max_value=9).map(_Flag),
)


class TestRowSizeIsTheSumOfValueSizes:
    @given(st.lists(sized_value, max_size=12).map(tuple))
    def test_row_size_equals_value_sizes(self, row):
        """``row_size`` dispatches on exact type in one loop;
        ``value_size`` stays the definition.

        The trap: the modeled size of a string is ``4 + len(chars)``,
        NOT its UTF-8 length — ``"é"`` is 5 bytes here and 2 + length
        prefix on the wire. "The codec knows an entry's encoded length"
        must therefore not be used to size strings: AIRCA is ASCII, so
        no benchmark answer would change and the simulated clock would
        move unnoticed on any other data.
        """
        assert row_size(row) == sum(value_size(v) for v in row)

    def test_non_ascii_string_is_sized_by_characters(self):
        assert row_size(("é漢",)) == 4 + 2 != 4 + len("é漢".encode("utf-8"))

    def test_bool_is_not_sized_as_the_int_it_subclasses(self):
        assert row_size((True, 1)) == 1 + 8

    def test_int_subclass_takes_the_slow_path(self, monkeypatch):
        import repro.relational.types as types

        seen = []

        def spy(value):
            seen.append(value)
            return value_size(value)

        monkeypatch.setattr(types, "value_size", spy)
        assert types.row_size((1, _Cause.WEATHER, 2.0, "x", _Flag(3))) == 8 * 4 + 5
        assert seen == [_Cause.WEATHER, _Flag(3)]
        assert [type(v) for v in seen] == [_Cause, _Flag]


class TestInferType:
    def test_infer(self):
        assert infer_type(1) is AttrType.INT
        assert infer_type(1.0) is AttrType.FLOAT
        assert infer_type("x") is AttrType.STR
        assert infer_type(True) is AttrType.BOOL
        assert infer_type(None) is None

    def test_infer_unsupported(self):
        with pytest.raises(TypeMismatchError):
            infer_type(object())
