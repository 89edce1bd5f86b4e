"""Tests for attribute domains."""

import pytest

from repro.errors import TypeMismatchError
from repro.relational.types import (
    ANY,
    BOOL,
    FLOAT,
    INT,
    STRING,
    check_value,
    infer_type,
    value_matches,
)


class TestValueMatches:
    def test_int_accepts_int(self):
        assert value_matches(3, INT)

    def test_int_rejects_bool(self):
        # bool is a subclass of int in Python; the domain must reject it.
        assert not value_matches(True, INT)

    def test_int_rejects_string(self):
        assert not value_matches("3", INT)

    def test_float_accepts_int_and_float(self):
        assert value_matches(3, FLOAT)
        assert value_matches(3.5, FLOAT)

    def test_float_rejects_bool(self):
        assert not value_matches(True, FLOAT)

    def test_string_accepts_str_only(self):
        assert value_matches("abc", STRING)
        assert not value_matches(3, STRING)

    def test_bool_accepts_bool_only(self):
        assert value_matches(False, BOOL)
        assert not value_matches(0, BOOL)

    def test_any_accepts_everything(self):
        for value in (1, "x", 2.5, True, None, (1, 2)):
            assert value_matches(value, ANY)

    def test_any_rejects_unhashable_values(self):
        # Stored rows are hashable; a JSON list or object cannot be one.
        for value in ([1], {"a": 1}, (1, [2])):
            assert not value_matches(value, ANY)


class TestCheckValue:
    def test_raises_on_mismatch(self):
        with pytest.raises(TypeMismatchError):
            check_value("x", INT)

    def test_context_appears_in_message(self):
        with pytest.raises(TypeMismatchError, match="Family.FID"):
            check_value(3.5, STRING, context="Family.FID")

    def test_passes_on_match(self):
        check_value("ok", STRING)


class TestInferType:
    @pytest.mark.parametrize("value,expected", [
        (True, BOOL),
        (3, INT),
        (2.5, FLOAT),
        ("s", STRING),
        (None, ANY),
        ([1], ANY),
    ])
    def test_inference(self, value, expected):
        assert infer_type(value) is expected
