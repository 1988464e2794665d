"""The WAL and checkpoints log statements that parse back to what was analyzed.

The engine logs ``to_sql(parsed, lossless=True)``: submitted SQL text and
ASTs alike are rendered so that parsing the logged text gives an AST
``==`` to the one the engine analyzes. Range literals with more than six
significant digits used to be logged through ``:g`` (``1000.123456``
became ``1000.12``), so recovery re-analyzed other statements and its
totWork drifted from the live engine's.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.db import StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer
from repro.query import ParseError, parse_statement
from repro.query.ast import (
    ColumnRef,
    EqualityPredicate,
    InsertStatement,
    SelectQuery,
)
from repro.service import TuningEngine, read_wal
from repro.service.wal import Durability


def _precise_sql(i: int) -> str:
    lo = 1000.123456 + 37.000017 * i
    hi = 1900.987654 + 11.000013 * i
    return (
        "SELECT l.l_quantity FROM tpch.lineitem l "
        f"WHERE l.l_extendedprice BETWEEN {lo!r} AND {hi!r}"
    )


def _engine(stats) -> TuningEngine:
    return TuningEngine(WhatIfOptimizer(stats), StatsTransitionCosts(stats))


def _logged_statements(directory):
    """The statements of the WAL's submit and submit_many records, parsed."""
    scan = read_wal(os.path.join(directory, "wal.log"))
    out = []
    for record in scan.records:
        if record.kind == "submit":
            out.append(parse_statement(record.payload["sql"]))
        elif record.kind == "submit_many":
            out.extend(
                parse_statement(entry["sql"])
                for entry in record.payload["entries"]
            )
    return out


def test_wal_tail_recovers_the_analyzed_statements(bench_stats, tmp_path):
    directory = str(tmp_path / "durable")
    live = _engine(bench_stats)
    durability = Durability(directory, fsync_interval_ms=0)
    durability.attach(live)
    analyzed = []
    for i in range(9):
        analyzed.append(live.submit("client", _precise_sql(i)))
        live.pump()
    # An AST submitted in a batch, with a bulk insert beside it.
    batch = [
        ("client", parse_statement(_precise_sql(9))),
        ("client", InsertStatement("tpch.lineitem", row_count=250)),
    ]
    live.submit_many(batch)
    analyzed.extend(statement for _, statement in batch)
    live.pump()
    durability.close()

    assert _logged_statements(directory) == analyzed
    recovered, _ = TuningEngine.recover(
        directory, WhatIfOptimizer(bench_stats),
        StatsTransitionCosts(bench_stats),
    )
    recovered.pump()
    assert recovered.statements_processed == live.statements_processed == 11
    assert recovered.total_work == live.total_work
    assert recovered.realized_total_work == live.realized_total_work
    assert recovered.tuner.export_state() == live.tuner.export_state()


def test_checkpoint_without_drain_keeps_pending_statements_exact(
    bench_stats, tmp_path
):
    directory = str(tmp_path / "durable")
    live = _engine(bench_stats)
    durability = Durability(directory, fsync_interval_ms=0)
    durability.attach(live)
    statements = [live.submit("client", _precise_sql(i)) for i in range(4)]
    live.pump()
    statements += [live.submit("client", _precise_sql(i)) for i in range(4, 10)]
    path = durability.checkpoint(drain=False)
    durability.close()
    with open(path) as handle:
        document = json.load(handle)

    pending = [parse_statement(item["sql"]) for item in document["pending"]]
    assert pending == statements[4:]
    realized = document["accounting"]["pending_realized"]
    assert parse_statement(realized["sql"]) == statements[3]

    restored = TuningEngine.restore(
        document, WhatIfOptimizer(bench_stats),
        StatsTransitionCosts(bench_stats),
    )
    assert restored.pump() == live.pump() == 6
    assert restored.total_work == live.total_work
    assert restored.realized_total_work == live.realized_total_work
    assert restored.tuner.export_state() == live.tuner.export_state()


@pytest.mark.parametrize("value", ["it's", "1995-03-15"])
def test_ast_the_logged_text_cannot_reproduce_is_rejected(
    bench_stats, tmp_path, value
):
    """A quote in a string literal would make the logged text unparsable
    (recovery fails); a timestamp-shaped string parses back as a number
    (recovery analyzes another statement). Both are rejected before
    anything is logged, enqueued or registered."""
    directory = str(tmp_path / "durable")
    engine = _engine(bench_stats)
    durability = Durability(directory, fsync_interval_ms=0)
    durability.attach(engine)
    column = ColumnRef("tpch.lineitem", "l_shipdate")
    statement = SelectQuery(
        tables=("tpch.lineitem",),
        predicates=(EqualityPredicate(column, value),),
    )
    with pytest.raises(ParseError, match="parses back"):
        engine.submit("client", statement)
    with pytest.raises(ParseError, match="parses back"):
        engine.submit_many([("client", parse_statement(_precise_sql(0))),
                            ("client", statement)])
    durability.close()
    assert _logged_statements(directory) == []
    assert engine.queue_depth == 0
    assert engine.metrics()["sessions"] == {}
