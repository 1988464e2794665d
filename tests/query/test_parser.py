"""Tests for the SQL-subset parser, including the paper's example queries."""

from __future__ import annotations

import pytest

from repro.query.ast import (
    EqualityPredicate,
    InsertStatement,
    RangePredicate,
    SelectQuery,
    UpdateStatement,
)
from repro.query.parser import ParseError, parse_statement, to_sql


class TestPaperQueries:
    """The two statements quoted verbatim in §6.1 must parse."""

    PAPER_SELECT = """
        SELECT count(*)
        FROM tpce.security table1, tpce.company table2,
             tpce.daily_market table0
        WHERE table1.s_pe BETWEEN 63.278 AND 86.091
          AND table1.s_exch_date BETWEEN '1995-05-12-01.46.40'
              AND '2006-07-10-01.46.40'
          AND table2.co_open_date BETWEEN '1812-08-05-03.21.02'
              AND '1812-12-12-03.21.02'
          AND table1.s_symb = table0.dm_s_symb
          AND table2.co_id = table1.s_co_id
    """

    PAPER_UPDATE = """
        UPDATE tpch.lineitem
        SET l_tax = l_tax + RANDOM_SIGN() * 0.000001
        WHERE l_extendedprice BETWEEN 65522.378 AND 66256.943
    """

    def test_select_example(self):
        query = parse_statement(self.PAPER_SELECT)
        assert isinstance(query, SelectQuery)
        assert set(query.tables) == {
            "tpce.security", "tpce.company", "tpce.daily_market"
        }
        assert len(query.joins) == 2
        assert len(query.predicates) == 3
        assert not query.projection  # count(*)
        # timestamp literals became numeric day offsets
        exch = next(
            p for p in query.predicates if p.column.column == "s_exch_date"
        )
        assert isinstance(exch, RangePredicate)
        assert exch.lo is not None and exch.lo < exch.hi

    def test_update_example(self):
        stmt = parse_statement(self.PAPER_UPDATE)
        assert isinstance(stmt, UpdateStatement)
        assert stmt.table == "tpch.lineitem"
        assert stmt.set_columns == ("l_tax",)
        assert len(stmt.predicates) == 1
        pred = stmt.predicates[0]
        assert isinstance(pred, RangePredicate)
        assert pred.lo == pytest.approx(65522.378)
        assert pred.hi == pytest.approx(66256.943)


class TestSelectParsing:
    def test_simple_single_table(self):
        query = parse_statement(
            "SELECT count(*) FROM tpch.lineitem WHERE l_tax BETWEEN 0 AND 0.04"
        )
        assert query.tables == ("tpch.lineitem",)
        assert len(query.predicates) == 1

    def test_projection_list(self):
        query = parse_statement(
            "SELECT l_tax, l_quantity FROM tpch.lineitem WHERE l_tax >= 0.01"
        )
        assert [c.column for c in query.projection] == ["l_tax", "l_quantity"]

    def test_comparison_operators(self):
        for op, field in (("<=", "hi"), (">=", "lo"), ("<", "hi"), (">", "lo")):
            query = parse_statement(
                f"SELECT count(*) FROM tpch.lineitem WHERE l_tax {op} 0.05"
            )
            pred = query.predicates[0]
            assert isinstance(pred, RangePredicate)
            assert getattr(pred, field) == pytest.approx(0.05)

    def test_string_equality(self):
        query = parse_statement(
            "SELECT count(*) FROM tpch.orders WHERE o_orderstatus = 'F'"
        )
        pred = query.predicates[0]
        assert isinstance(pred, EqualityPredicate)
        assert pred.value == "F"

    def test_order_by(self):
        query = parse_statement(
            "SELECT l_tax FROM tpch.lineitem WHERE l_tax >= 0 ORDER BY l_shipdate"
        )
        assert query.order_by is not None
        assert query.order_by.columns[0].column == "l_shipdate"

    def test_alias_resolution(self):
        query = parse_statement(
            "SELECT count(*) FROM tpch.lineitem l, tpch.orders o "
            "WHERE l.l_orderkey = o.o_orderkey AND l.l_tax <= 0.02"
        )
        assert len(query.joins) == 1
        assert query.joins[0].left.table == "tpch.lineitem"

    def test_table_name_usable_as_alias(self):
        query = parse_statement(
            "SELECT count(*) FROM tpch.lineitem "
            "WHERE lineitem.l_tax BETWEEN 0 AND 0.01"
        )
        assert query.predicates[0].column.table == "tpch.lineitem"

    def test_unknown_alias_rejected(self):
        with pytest.raises(ParseError, match="alias"):
            parse_statement(
                "SELECT count(*) FROM tpch.lineitem l WHERE zz.l_tax <= 1"
            )

    def test_ambiguous_unqualified_column_rejected(self):
        with pytest.raises(ParseError, match="ambiguous"):
            parse_statement(
                "SELECT count(*) FROM tpch.lineitem l, tpch.orders o "
                "WHERE l_tax <= 1"
            )

    def test_between_requires_numeric(self):
        with pytest.raises(ParseError):
            parse_statement(
                "SELECT count(*) FROM tpch.orders "
                "WHERE o_orderstatus BETWEEN 'A' AND 'F'"
            )


class TestOtherStatements:
    def test_delete(self):
        stmt = parse_statement(
            "DELETE FROM tpch.lineitem WHERE l_shipdate BETWEEN 100 AND 200"
        )
        assert stmt.is_update
        assert stmt.table == "tpch.lineitem"

    def test_insert(self):
        stmt = parse_statement("INSERT INTO tpch.lineitem VALUES (1, 2, 3)")
        assert isinstance(stmt, InsertStatement)
        assert stmt.row_count == 1

    def test_insert_counts_values_tuples(self):
        stmt = parse_statement(
            "INSERT INTO tpch.lineitem (l_tax, l_quantity) "
            "VALUES (0.1, (2)), ('a(', 3), (4, 5)"
        )
        assert stmt.row_count == 3
        assert parse_statement("INSERT INTO tpch.lineitem").row_count == 1

    def test_multi_column_update(self):
        stmt = parse_statement(
            "UPDATE tpce.daily_market SET dm_close = 4, dm_vol = dm_vol + 1 "
            "WHERE dm_date BETWEEN 100 AND 110"
        )
        assert stmt.set_columns == ("dm_close", "dm_vol")

    def test_unsupported_statement(self):
        with pytest.raises(ParseError, match="unsupported"):
            parse_statement("CREATE TABLE foo (a int)")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT count(*) FROM")


class TestRoundTrip:
    STATEMENTS = [
        "SELECT count(*) FROM tpch.lineitem WHERE l_tax BETWEEN 0 AND 0.04",
        "SELECT count(*) FROM tpch.lineitem l, tpch.orders o "
        "WHERE l.l_orderkey = o.o_orderkey AND l.l_tax <= 0.02",
        "DELETE FROM tpch.lineitem WHERE l_shipdate >= 100",
        "UPDATE tpch.lineitem SET l_tax = 0 WHERE l_quantity <= 5",
    ]

    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_parse_render_parse_fixpoint(self, sql):
        first = parse_statement(sql)
        rendered = to_sql(first)
        second = parse_statement(rendered)
        assert first.tables_referenced() == second.tables_referenced()
        assert to_sql(second) == rendered
