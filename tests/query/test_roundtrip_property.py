"""Property-based round-trip tests: random ASTs → SQL → AST.

``to_sql`` renders range bounds with ``:g`` (six significant digits), so
its round trip is approximate; ``to_sql(…, lossless=True)``, the text the
engine logs, must parse back to an AST ``==`` to the one rendered.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.ast import (
    ColumnRef,
    DeleteStatement,
    EqualityPredicate,
    InsertStatement,
    RangePredicate,
    SelectQuery,
    UpdateStatement,
)
from repro.query.parser import parse_statement, to_sql

TABLE = "tpch.lineitem"
COLUMNS = ("l_tax", "l_quantity", "l_extendedprice", "l_shipdate")

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def range_predicates(draw):
    column = draw(st.sampled_from(COLUMNS))
    lo = draw(finite)
    width = draw(st.floats(min_value=0, max_value=1e5, allow_nan=False))
    shape = draw(st.sampled_from(["both", "lo", "hi"]))
    ref = ColumnRef(TABLE, column)
    if shape == "both":
        return RangePredicate(ref, lo=lo, hi=lo + width)
    if shape == "lo":
        return RangePredicate(ref, lo=lo)
    return RangePredicate(ref, hi=lo)


@st.composite
def eq_predicates(draw):
    column = draw(st.sampled_from(COLUMNS))
    value = draw(finite)
    return EqualityPredicate(ColumnRef(TABLE, column), value)


@st.composite
def select_queries(draw):
    predicates = tuple(
        draw(st.lists(st.one_of(range_predicates(), eq_predicates()),
                      min_size=1, max_size=4))
    )
    projection = ()
    if draw(st.booleans()):
        projection = (ColumnRef(TABLE, draw(st.sampled_from(COLUMNS))),)
    return SelectQuery(
        tables=(TABLE,), predicates=predicates, projection=projection
    )


def _predicate_key(pred):
    if isinstance(pred, EqualityPredicate):
        return ("eq", pred.column, pytest.approx(pred.value))
    return ("range", pred.column, pred.lo, pred.hi)


class TestRoundTripProperties:
    @given(query=select_queries())
    @settings(max_examples=60, deadline=None)
    def test_select_roundtrip_preserves_semantics(self, query):
        reparsed = parse_statement(to_sql(query))
        assert isinstance(reparsed, SelectQuery)
        assert reparsed.tables == query.tables
        assert len(reparsed.predicates) == len(query.predicates)
        for original, parsed in zip(query.predicates, reparsed.predicates):
            assert type(original) is type(parsed)
            assert original.column == parsed.column
            if isinstance(original, RangePredicate):
                for bound in ("lo", "hi"):
                    a, b = getattr(original, bound), getattr(parsed, bound)
                    if a is None:
                        assert b is None
                    else:
                        assert b == pytest.approx(a, rel=1e-4, abs=1e-4)

    @given(
        column=st.sampled_from(COLUMNS),
        lo=finite,
        width=st.floats(min_value=0, max_value=1e4, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_update_roundtrip(self, column, lo, width):
        stmt = UpdateStatement(
            TABLE,
            ("l_discount",),
            (RangePredicate(ColumnRef(TABLE, column), lo=lo, hi=lo + width),),
        )
        reparsed = parse_statement(to_sql(stmt))
        assert isinstance(reparsed, UpdateStatement)
        assert reparsed.set_columns == ("l_discount",)
        assert reparsed.predicates[0].column.column == column

    @given(column=st.sampled_from(COLUMNS), hi=finite)
    @settings(max_examples=40, deadline=None)
    def test_delete_roundtrip(self, column, hi):
        stmt = DeleteStatement(
            TABLE, (RangePredicate(ColumnRef(TABLE, column), hi=hi),)
        )
        reparsed = parse_statement(to_sql(stmt))
        assert isinstance(reparsed, DeleteStatement)
        assert reparsed.table == TABLE
        assert reparsed.predicates[0].hi == pytest.approx(hi, rel=1e-4, abs=1e-4)


@st.composite
def statements(draw):
    """A select, update, delete or (bulk) insert on the test table."""
    kind = draw(st.sampled_from(["select", "update", "delete", "insert"]))
    if kind == "select":
        return draw(select_queries())
    if kind == "insert":
        return InsertStatement(TABLE, row_count=draw(st.integers(1, 40)))
    predicates = tuple(draw(st.lists(range_predicates(), max_size=3)))
    if kind == "update":
        return UpdateStatement(TABLE, ("l_discount",), predicates)
    return DeleteStatement(TABLE, predicates)


class TestLosslessRendering:
    @given(statement=statements())
    @settings(max_examples=150, deadline=None)
    def test_parses_back_to_an_equal_ast(self, statement):
        assert parse_statement(to_sql(statement, lossless=True)) == statement

    def test_default_rendering_is_unchanged(self):
        """perfbench renders its streams through the default form."""
        ref = ColumnRef(TABLE, "l_extendedprice")
        query = SelectQuery(
            tables=(TABLE,),
            predicates=(RangePredicate(ref, lo=1000.123456, hi=132769.0),),
        )
        assert to_sql(query) == (
            "SELECT count(*) FROM tpch.lineitem "
            "WHERE lineitem.l_extendedprice BETWEEN 1000.12 AND 132769"
        )
        # Bounds whose :g text is already exact keep it when lossless.
        assert to_sql(query, lossless=True) == (
            "SELECT count(*) FROM tpch.lineitem "
            "WHERE lineitem.l_extendedprice BETWEEN 1000.123456 AND 132769"
        )
        bulk = InsertStatement(TABLE, row_count=3)
        assert to_sql(bulk) == "INSERT INTO tpch.lineitem VALUES (...)"
        assert to_sql(bulk, lossless=True) == (
            "INSERT INTO tpch.lineitem VALUES (...), (...), (...)"
        )
