"""Tests for the DBA's client session: the advisor surface of the §6
middleware (intercept statements, pull recommendations, push votes and
CREATE/DROP actions) on a single-client engine."""

from __future__ import annotations

import pytest

from repro.db import Index
from repro.service import Recommendation, TuningEngine

SALES = "shop.sales"


@pytest.fixture()
def session(toy_stats):
    return TuningEngine.for_stats(toy_stats, idx_cnt=8, state_cnt=64).session(
        "dba"
    )


def narrow_sql(stats, column="amount", fraction=0.02):
    col = stats.column_stats(SALES, column)
    lo = col.min_value
    hi = lo + col.domain_width * fraction
    return f"SELECT count(*) FROM shop.sales WHERE {column} BETWEEN {lo} AND {hi}"


class TestInterception:
    def test_execute_sql_text(self, session, toy_stats):
        statement = session.execute(narrow_sql(toy_stats))
        assert statement.tables_referenced() == (SALES,)
        assert session.statements_processed == 1

    def test_execute_ast(self, session, toy_stats):
        from repro.query import select
        col = toy_stats.column_stats(SALES, "amount")
        query = (
            select(SALES)
            .where_between("amount", col.min_value, col.min_value + 5)
            .build()
        )
        session.execute(query)
        assert session.statements_processed == 1

    def test_execute_many(self, session, toy_stats):
        count = session.execute_many([narrow_sql(toy_stats)] * 5)
        assert count == 5
        assert session.statements_processed == 5


class TestRecommendations:
    def test_recommendation_diff(self, session, toy_stats):
        session.execute_many([narrow_sql(toy_stats)] * 50)
        rec = session.recommendation()
        assert isinstance(rec, Recommendation)
        assert rec.to_create, "a hot range column should be recommended"
        assert not rec.is_adopted
        ddl = rec.statements()
        assert any(stmt.startswith("CREATE INDEX") for stmt in ddl)

    def test_adoption_flow(self, session, toy_stats):
        session.execute_many([narrow_sql(toy_stats)] * 50)
        created, dropped = session.adopt()
        assert created and not dropped
        assert session.recommendation().is_adopted
        assert session.materialized == session.engine.tuner.recommend()

    def test_drop_ddl_generated(self, session, toy_stats):
        session.execute_many([narrow_sql(toy_stats)] * 50)
        session.adopt()
        extra = Index(SALES, ("product_id",))
        session.engine.tuner.feedback({extra}, frozenset())  # force into rec space? no-op if unknown
        rec = Recommendation(
            recommended=frozenset(), materialized=session.materialized
        )
        assert all(stmt.startswith("DROP INDEX") for stmt in rec.statements())


class TestDbaActions:
    def test_create_and_drop_with_implicit_votes(self, session, toy_stats):
        session.execute(narrow_sql(toy_stats))
        index = Index(SALES, ("amount",))
        tuner = session.engine.tuner
        session.create_index(index)
        assert index in session.materialized
        assert index in tuner.recommend(), "implicit +vote honored"
        session.drop_index(index)
        assert index not in session.materialized
        assert index not in tuner.recommend(), "implicit -vote honored"

    def test_double_create_rejected(self, session):
        index = Index(SALES, ("amount",))
        session.create_index(index)
        with pytest.raises(ValueError):
            session.create_index(index)

    def test_drop_unmaterialized_rejected(self, session):
        with pytest.raises(ValueError):
            session.drop_index(Index(SALES, ("amount",)))


class TestVotes:
    def test_vote_up_down(self, session, toy_stats):
        session.execute_many([narrow_sql(toy_stats)] * 5)
        index = Index(SALES, ("amount",))
        assert index in session.vote_up(index)
        assert index not in session.vote_down(index)

    def test_simultaneous_vote(self, session, toy_stats):
        session.execute_many(
            [narrow_sql(toy_stats), narrow_sql(toy_stats, "sale_date")]
        )
        a = Index(SALES, ("amount",))
        b = Index(SALES, ("sale_date",))
        rec = session.vote({a}, {b})
        assert a in rec and b not in rec
