"""Tests for the statement AST invariants."""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.db import Index

from repro.query.ast import (
    ColumnRef,
    DeleteStatement,
    EqualityPredicate,
    InsertStatement,
    JoinPredicate,
    OrderBy,
    RangePredicate,
    SelectQuery,
    UpdateStatement,
)

L = "tpch.lineitem"
O = "tpch.orders"


class TestPredicates:
    def test_range_needs_a_bound(self):
        with pytest.raises(ValueError):
            RangePredicate(ColumnRef(L, "l_tax"))

    def test_range_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            RangePredicate(ColumnRef(L, "l_tax"), lo=5, hi=1)

    def test_range_table_property(self):
        pred = RangePredicate(ColumnRef(L, "l_tax"), lo=0)
        assert pred.table == L

    def test_join_must_span_tables(self):
        with pytest.raises(ValueError):
            JoinPredicate(ColumnRef(L, "a"), ColumnRef(L, "b"))

    def test_join_column_on(self):
        join = JoinPredicate(ColumnRef(L, "l_orderkey"), ColumnRef(O, "o_orderkey"))
        assert join.column_on(L).column == "l_orderkey"
        assert join.column_on(O).column == "o_orderkey"
        assert join.touches(L) and join.touches(O)
        with pytest.raises(ValueError):
            join.column_on("tpch.part")

    def test_order_by_single_table(self):
        with pytest.raises(ValueError):
            OrderBy((ColumnRef(L, "a"), ColumnRef(O, "b")))
        with pytest.raises(ValueError):
            OrderBy(())


class TestSelectQuery:
    def test_requires_tables(self):
        with pytest.raises(ValueError):
            SelectQuery(tables=())

    def test_rejects_duplicate_tables(self):
        with pytest.raises(ValueError):
            SelectQuery(tables=(L, L))

    def test_rejects_predicate_on_foreign_table(self):
        with pytest.raises(ValueError):
            SelectQuery(
                tables=(L,),
                predicates=(EqualityPredicate(ColumnRef(O, "o_orderkey"), 1),),
            )

    def test_rejects_join_on_unreferenced_table(self):
        with pytest.raises(ValueError):
            SelectQuery(
                tables=(L,),
                joins=(JoinPredicate(
                    ColumnRef(L, "l_orderkey"), ColumnRef(O, "o_orderkey")
                ),),
            )

    def test_columns_needed_gathers_everything(self):
        query = SelectQuery(
            tables=(L, O),
            predicates=(RangePredicate(ColumnRef(L, "l_shipdate"), lo=0, hi=10),),
            joins=(JoinPredicate(
                ColumnRef(L, "l_orderkey"), ColumnRef(O, "o_orderkey")
            ),),
            projection=(ColumnRef(L, "l_tax"),),
        )
        assert query.columns_needed(L) == {"l_shipdate", "l_orderkey", "l_tax"}
        assert query.columns_needed(O) == {"o_orderkey"}

    def test_predicates_on_filters_by_table(self):
        pred_l = RangePredicate(ColumnRef(L, "l_tax"), lo=0)
        pred_o = EqualityPredicate(ColumnRef(O, "o_orderstatus"), "F")
        query = SelectQuery(tables=(L, O), predicates=(pred_l, pred_o))
        assert query.predicates_on(L) == (pred_l,)
        assert query.predicates_on(O) == (pred_o,)

    def test_is_update_false(self):
        assert not SelectQuery(tables=(L,)).is_update

    def test_hashable(self):
        q1 = SelectQuery(tables=(L,))
        q2 = SelectQuery(tables=(L,))
        assert hash(q1) == hash(q2)
        assert q1 == q2


class TestWriteStatements:
    def test_update_requires_set_columns(self):
        with pytest.raises(ValueError):
            UpdateStatement(L, ())

    def test_update_predicates_same_table(self):
        with pytest.raises(ValueError):
            UpdateStatement(
                L, ("l_tax",),
                predicates=(RangePredicate(ColumnRef(O, "o_totalprice"), lo=0),),
            )

    def test_update_columns_needed(self):
        stmt = UpdateStatement(
            L, ("l_tax",),
            predicates=(RangePredicate(ColumnRef(L, "l_extendedprice"), lo=0),),
        )
        assert stmt.columns_needed(L) == {"l_tax", "l_extendedprice"}
        assert stmt.columns_needed(O) == frozenset()
        assert stmt.is_update

    def test_insert_row_count(self):
        with pytest.raises(ValueError):
            InsertStatement(L, row_count=0)
        stmt = InsertStatement(L, row_count=5)
        assert stmt.is_update
        assert stmt.tables_referenced() == (L,)
        assert stmt.predicates_on(L) == ()

    def test_delete(self):
        stmt = DeleteStatement(
            L, predicates=(RangePredicate(ColumnRef(L, "l_tax"), hi=1),)
        )
        assert stmt.is_update
        assert stmt.columns_needed(L) == {"l_tax"}
        with pytest.raises(ValueError):
            DeleteStatement(
                L, predicates=(RangePredicate(ColumnRef(O, "o_totalprice"), lo=0),)
            )


def _statements():
    ship = ColumnRef(L, "l_shipdate")
    return [
        SelectQuery(
            tables=(L, O),
            predicates=(
                EqualityPredicate(ColumnRef(O, "o_orderstatus"), "F"),
                RangePredicate(ship, lo=1.5, hi=20.0),
            ),
            joins=(JoinPredicate(ColumnRef(L, "l_orderkey"), ColumnRef(O, "o_orderkey")),),
            projection=(ship,),
            order_by=OrderBy((ship,)),
        ),
        UpdateStatement(L, ("l_tax",), (RangePredicate(ship, hi=3.0),)),
        InsertStatement(L, row_count=7),
        DeleteStatement(L, (EqualityPredicate(ship, 4),)),
    ]


def _field_tuple(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


class TestHashOnce:
    """Statements hash once per object, to the generated dataclass value."""

    @pytest.mark.parametrize("statement", _statements(), ids=lambda s: type(s).__name__)
    def test_hash_is_the_field_tuple_hash_computed_once(self, statement):
        assert "_hash" not in vars(statement)
        assert hash(statement) == hash(_field_tuple(statement))
        assert vars(statement)["_hash"] == hash(statement)
        twin = copy.copy(statement)
        assert twin == statement and twin is not statement
        assert hash(twin) == hash(statement)
        assert "_hash" not in repr(statement)
        assert "_hash" not in [f.name for f in dataclasses.fields(statement)]

    @pytest.mark.parametrize("statement", _statements(), ids=lambda s: type(s).__name__)
    def test_cached_hash_does_not_survive_pickle_or_copy(self, statement):
        hash(statement)
        for clone in (
            copy.copy(statement),
            copy.deepcopy(statement),
            pickle.loads(pickle.dumps(statement)),
        ):
            assert "_hash" not in vars(clone)
            assert clone == statement
            assert hash(clone) == hash(statement)

    def test_pickles_rehash_under_another_hash_seed(self):
        """str hashes are salted per process: an unpickled statement or
        index must hash like a fresh one in the loading process."""
        objects = _statements() + [Index(L, ("l_shipdate", "l_tax"))]
        for obj in objects:
            hash(obj)
        script = (
            "import dataclasses, pickle, sys\n"
            "objs = pickle.loads(sys.stdin.buffer.read())\n"
            "print(all(hash(o) == hash(tuple(getattr(o, f.name) for f in "
            "dataclasses.fields(o))) for o in objs))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(objects),
            env=env, capture_output=True, check=True,
        )
        assert done.stdout.strip() == b"True"
