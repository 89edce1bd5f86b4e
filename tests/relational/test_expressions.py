"""Tests for the comparison operators."""

import pytest

from repro.errors import QueryError
from repro.relational.expressions import ComparisonOp


class TestComparisonOp:
    @pytest.mark.parametrize("symbol,op", [
        ("=", ComparisonOp.EQ), ("==", ComparisonOp.EQ),
        ("!=", ComparisonOp.NE), ("<>", ComparisonOp.NE),
        ("<", ComparisonOp.LT), ("<=", ComparisonOp.LE),
        (">", ComparisonOp.GT), (">=", ComparisonOp.GE),
    ])
    def test_parse(self, symbol, op):
        assert ComparisonOp.parse(symbol) is op

    def test_parse_unknown(self):
        with pytest.raises(QueryError):
            ComparisonOp.parse("~~")

    def test_flip_is_involution(self):
        for op in ComparisonOp:
            assert op.flip().flip() is op

    def test_flip_semantics(self):
        # a < b iff b > a, on samples
        assert ComparisonOp.LT.function(1, 2)
        assert ComparisonOp.LT.flip().function(2, 1)

    def test_negate_is_involution(self):
        for op in ComparisonOp:
            assert op.negate().negate() is op

    def test_negate_semantics(self):
        for op in ComparisonOp:
            for a, b in [(1, 2), (2, 1), (1, 1)]:
                assert op.function(a, b) != op.negate().function(a, b)
