"""WAL replay of every record kind, and the typed error for a bad payload.

The engine logs one record per acknowledged write path — ``submit``,
``submit_many``, ``drain``, ``vote`` and ``materialize`` (``create``,
``drop``, ``adopt`` with and without a lease) — and recovery re-applies
each through the path that logged it. These tests drive every path
against a ``Durability``-attached engine and require the recovered engine
to equal the live one exactly, then feed recovery records whose payload
does not decode, or contradicts the engine's state, and require
:class:`CorruptRecord` naming the record.
"""

from __future__ import annotations

import pytest

from repro.db import Index, StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer
from repro.query.parser import to_sql
from repro.service import CorruptRecord, Durability, TuningEngine
from repro.service.wal import WriteAheadLog, read_wal
from repro.workload import generate_workload, scaled_phases

ENGINE_OPTIONS = {"batch_size": 4, "idx_cnt": 8, "state_cnt": 64}

SESSION_FIELDS = (
    "priority", "submitted", "processed", "recommended_work", "realized_work",
)


@pytest.fixture(scope="module")
def stream(bench_catalog):
    catalog, stats = bench_catalog
    workload = generate_workload(catalog, stats, scaled_phases(2), seed=7)
    return [to_sql(statement) for statement in workload.statements]


def recover(stats, directory):
    return Durability.recover(
        directory,
        WhatIfOptimizer(stats),
        StatsTransitionCosts(stats),
        engine_options=dict(ENGINE_OPTIONS),
    )


def sessions(engine):
    return {
        client: {field: counters[field] for field in SESSION_FIELDS}
        for client, counters in engine.metrics()["sessions"].items()
    }


@pytest.mark.parametrize("priority", [None, "interactive", "background"])
def test_every_record_kind_replays_to_the_live_state(
    bench_stats, stream, tmp_path, priority
):
    """One run through every write path, once all ``normal`` (no drain
    records) and once per non-default class; recovery from the WAL alone
    must reproduce the live engine exactly. The background-only pump
    drains past queued ``normal`` work, so replay must re-form that batch
    from the drain record's classes, not by class rank alone."""
    sql = iter(stream)
    engine = TuningEngine.for_stats(bench_stats, **ENGINE_OPTIONS)
    durability = Durability(tmp_path)
    durability.attach(engine)
    engine.submit("a", next(sql))
    engine.submit("b", next(sql), priority=priority)
    engine.submit_many([
        ("a", next(sql)), ("b", next(sql), priority), ("c", next(sql)),
    ])
    engine.pump(3)
    recommended = engine.recommendation().recommended
    endorsed = sorted(engine.tuner.candidates - recommended)
    engine.vote("dba", frozenset(endorsed[:1]), frozenset())
    engine.submit_many([("c", next(sql), priority), ("a", next(sql))])
    engine.pump(1, classes=("background",))
    engine.pump()
    built = sorted(engine.tuner.candidates)[-1]
    engine.create_index("dba", built)
    engine.submit("a", next(sql))
    engine.pump()
    engine.drop_index("dba", built)
    engine.adopt("dba")
    engine.submit("c", next(sql), priority=priority)
    engine.submit("b", next(sql))
    engine.pump(1)
    engine.adopt("dba", lease=False)
    engine.submit("a", next(sql), priority=priority)
    engine.pump()
    durability.close()

    records = read_wal(tmp_path / "wal.log").records
    actions = [
        (r.payload["action"], r.payload.get("lease", True))
        for r in records if r.kind == "materialize"
    ]
    assert actions == [
        ("create", True), ("drop", True), ("adopt", True), ("adopt", False),
    ]
    kinds = {r.kind for r in records}
    assert {"submit", "submit_many", "vote", "materialize"} <= kinds
    assert ("drain" in kinds) == (priority is not None)

    recovered, report = recover(bench_stats, tmp_path)
    assert report["wal_replayed"] == len(records)
    recovered.pump()
    assert recovered.recommendation().recommended == (
        engine.recommendation().recommended
    )
    assert recovered.total_work == engine.total_work
    assert recovered.realized_total_work == engine.realized_total_work
    assert recovered.materialized == engine.materialized
    assert sessions(recovered) == sessions(engine)
    assert recovered.tuner.export_state() == engine.tuner.export_state()


@pytest.mark.parametrize(
    "kind, payload, problem",
    [
        pytest.param(
            "vote", {"client_id": "dba", "position": 1, "minus": []},
            "missing field 'plus'", id="vote-without-plus",
        ),
        pytest.param(
            "vote",
            {"client_id": "dba", "position": "1", "plus": [], "minus": []},
            "field 'position' is str, not int", id="vote-position-str",
        ),
        pytest.param(
            "vote",
            {"client_id": "dba", "position": 1, "plus": [{}], "minus": []},
            "missing field 'columns'", id="vote-index-without-columns",
        ),
        pytest.param(
            "materialize",
            {"client_id": "dba", "position": 1, "action": "rebuild",
             "index": {"table": "tpch.lineitem", "columns": ["l_shipdate"]}},
            "unknown materialize action 'rebuild'", id="unknown-action",
        ),
        pytest.param(
            "materialize",
            {"client_id": "dba", "position": 1, "action": "adopt", "lease": 0},
            "field 'lease' is int, not bool", id="adopt-lease-int",
        ),
        pytest.param(
            "materialize",
            {"client_id": "dba", "position": 1, "action": "create"},
            "missing field 'index'", id="create-without-index",
        ),
        pytest.param(
            "submit", {"client_id": "a", "sql": 7},
            "field 'sql' is int, not str", id="submit-sql-int",
        ),
        pytest.param(
            "submit", {"client_id": "a", "sql": "SELECT FROM WHERE"},
            "expected 'from'", id="submit-sql-unparseable",
        ),
        pytest.param(
            "submit", {"client_id": "a", "sql": "x", "priority": "urgent"},
            "unknown priority 'urgent'", id="submit-unknown-class",
        ),
        pytest.param(
            "submit_many", {"entries": {"client_id": "a"}},
            "field 'entries' is dict, not list", id="entries-not-a-list",
        ),
        pytest.param(
            "drain", {"position": 1, "classes": ["normal"]},
            "missing field 'count'", id="drain-without-count",
        ),
        pytest.param(
            "compact", {}, "unknown record kind 'compact'", id="unknown-kind",
        ),
    ],
)
def test_a_record_that_does_not_decode_raises_corrupt_record(
    bench_stats, stream, tmp_path, kind, payload, problem
):
    """A CRC-valid record whose payload lacks a field, holds one of the
    wrong type or SQL that does not parse, or names an unknown action is
    refused with the record's seq and byte offset, not a ``KeyError`` or
    ``ParseError`` from deep inside replay."""
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.append("submit", {"client_id": "a", "sql": stream[0]})
    wal.append(kind, payload)
    wal.close()
    bad = read_wal(tmp_path / "wal.log").records[1]
    with pytest.raises(CorruptRecord) as caught:
        recover(bench_stats, tmp_path)
    assert caught.value.seq == bad.seq == 2
    assert caught.value.offset == bad.offset > 0
    assert problem in str(caught.value)
    assert f"seq 2 ({kind})" in str(caught.value)


#: ``ix_sales_amount`` of the toy catalog.
AMOUNT = Index("shop.sales", ("amount",))


@pytest.mark.parametrize(
    "kind, payload, create_first, problem",
    [
        pytest.param(
            "vote",
            {"plus": [AMOUNT.to_payload()], "minus": [AMOUNT.to_payload()]},
            False, "F+ and F- must be disjoint", id="vote-for-and-against",
        ),
        pytest.param(
            "materialize", {"action": "drop", "index": AMOUNT.to_payload()},
            False, "ix_sales_amount is not materialized",
            id="drop-not-materialized",
        ),
        pytest.param(
            "materialize", {"action": "create", "index": AMOUNT.to_payload()},
            True, "ix_sales_amount is already materialized",
            id="create-materialized",
        ),
    ],
)
def test_a_record_that_contradicts_the_engine_raises_corrupt_record(
    toy_stats, tmp_path, kind, payload, create_first, problem
):
    """A CRC-valid vote for and against one index, or a create or drop
    that the materialized set contradicts at the record's position, is
    refused with the record's seq and byte offset, not a bare
    ``ValueError``."""
    engine = TuningEngine(
        WhatIfOptimizer(toy_stats), StatsTransitionCosts(toy_stats)
    )
    durability = Durability(tmp_path)
    wal = durability.attach(engine)
    engine.submit(
        "a", "SELECT count(*) FROM shop.sales WHERE amount BETWEEN 10 AND 20"
    )
    engine.pump()
    if create_first:
        engine.create_index("dba", AMOUNT)
    wal.append(kind, {"client_id": "dba", "position": 1, **payload})
    durability.close()
    bad = read_wal(tmp_path / "wal.log").records[-1]
    with pytest.raises(CorruptRecord) as caught:
        Durability.recover(
            tmp_path, WhatIfOptimizer(toy_stats), StatsTransitionCosts(toy_stats)
        )
    assert caught.value.seq == bad.seq
    assert caught.value.offset == bad.offset > 0
    assert problem in str(caught.value)
    assert f"seq {bad.seq} ({kind})" in str(caught.value)
