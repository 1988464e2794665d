"""Checkpoint/restore property: every prefix restores step-identically.

The contract under test (ISSUE 2 acceptance): serializing the full tuner
state after *any* prefix of a workload — including after DBA votes — and
restoring onto a fresh optimizer yields recommendations, work-function
values, and totWork identical to the uninterrupted run. Every checkpoint
document makes a real ``json`` round trip, so the test also pins the
JSON-serializability of the whole state (Python floats round-trip exactly).
"""

from __future__ import annotations

import json

import pytest

from repro.core.wfit import WFIT
from repro.db import Index, StatsTransitionCosts, build_catalog
from repro.optimizer import WhatIfOptimizer
from repro.query.parser import to_sql
from repro.service import TuningEngine, UnsupportedVersion
from repro.workload import generate_workload, scaled_phases

SALES = "shop.sales"

#: Acceptance tolerance for totWork equality (the runs are in fact exact).
TOL = 1e-6


def _toy_statements(stats):
    """A small mixed workload: two hot range columns plus updates."""
    from repro.query.parser import parse_statement

    amount = stats.column_stats(SALES, "amount")
    sale_date = stats.column_stats(SALES, "sale_date")
    sqls = []
    for i in range(4):
        lo = amount.min_value + amount.domain_width * 0.01 * i
        hi = lo + amount.domain_width * 0.03
        sqls.append(
            f"SELECT count(*) FROM {SALES} WHERE amount BETWEEN {lo} AND {hi}"
        )
    for i in range(3):
        lo = sale_date.min_value + sale_date.domain_width * 0.02 * i
        hi = lo + sale_date.domain_width * 0.04
        sqls.append(
            f"SELECT count(*) FROM {SALES} WHERE sale_date BETWEEN {lo} AND {hi}"
        )
    sqls.append(f"UPDATE {SALES} SET amount = amount WHERE amount <= {amount.min_value + amount.domain_width * 0.01}")
    sqls.append(
        f"SELECT count(*) FROM {SALES} WHERE amount BETWEEN {amount.min_value} AND {amount.min_value + amount.domain_width * 0.05}"
    )
    return [parse_statement(sql) for sql in sqls]


def _fresh_engine(stats, **options) -> TuningEngine:
    return TuningEngine(
        WhatIfOptimizer(stats), StatsTransitionCosts(stats), **options
    )


def _drive(engine: TuningEngine, statements, vote_at, votes, start=0):
    """Feed statements one at a time; apply ``votes`` after statement
    ``vote_at`` (1-based count of processed statements). Returns the
    recommendation after each statement."""
    recs = []
    for offset, statement in enumerate(statements, start=start + 1):
        engine.submit("client", statement)
        engine.pump()
        if offset == vote_at:
            engine.vote("client", *votes)
        recs.append(engine.tuner.recommend())
    return recs


def _work_functions(engine: TuningEngine):
    return [
        (instance.indices, instance.work_function())
        for instance in engine.tuner._plus.instances
    ]


def _session_counters(engine: TuningEngine):
    """``metrics()["sessions"]`` without the wall-clock latency window,
    which checkpoints do not carry."""
    return {
        client_id: {
            key: value
            for key, value in entry.items()
            if not key.startswith("latency_")
        }
        for client_id, entry in engine.metrics()["sessions"].items()
    }


class TestPrefixCheckpointProperty:
    OPTIONS = dict(idx_cnt=6, state_cnt=32, hist_size=10)
    VOTE_AT = 5  # after the 5th statement — prefixes beyond this cover
    #             checkpoint-after-feedback as well

    @pytest.fixture(scope="class")
    def setting(self, toy_stats):
        statements = _toy_statements(toy_stats)
        votes = (
            frozenset({Index(SALES, ("amount",))}),
            frozenset({Index(SALES, ("product_id",))}),
        )
        baseline = _fresh_engine(toy_stats, **self.OPTIONS)
        baseline_recs = _drive(baseline, statements, self.VOTE_AT, votes)
        return {
            "statements": statements,
            "votes": votes,
            "baseline": baseline,
            "baseline_recs": baseline_recs,
        }

    def test_every_prefix_restores_step_identically(self, toy_stats, setting):
        statements = setting["statements"]
        votes = setting["votes"]
        baseline = setting["baseline"]
        baseline_recs = setting["baseline_recs"]
        baseline_work = _work_functions(baseline)

        for k in range(len(statements) + 1):
            engine = _fresh_engine(toy_stats, **self.OPTIONS)
            _drive(engine, statements[:k], self.VOTE_AT, votes)
            document = json.loads(json.dumps(engine.checkpoint()))

            restored = TuningEngine.restore(
                document,
                WhatIfOptimizer(toy_stats),
                StatsTransitionCosts(toy_stats),
            )
            tail_recs = _drive(
                restored,
                statements[k:],
                self.VOTE_AT if self.VOTE_AT > k else -1,
                votes,
                start=k,
            )
            assert tail_recs == baseline_recs[k:], f"prefix {k}: recommendations diverged"
            assert restored.total_work == pytest.approx(
                baseline.total_work, abs=TOL
            ), f"prefix {k}: totWork diverged"
            restored_work = _work_functions(restored)
            assert [indices for indices, _ in restored_work] == [
                indices for indices, _ in baseline_work
            ], f"prefix {k}: partition diverged"
            for (_, ours), (_, theirs) in zip(restored_work, baseline_work):
                assert set(ours) == set(theirs)
                for config, value in theirs.items():
                    assert ours[config] == pytest.approx(value, abs=TOL), (
                        f"prefix {k}: work function diverged at {config}"
                    )

    def test_checkpoint_preserves_sessions_and_accounting(self, toy_stats, setting):
        statements = setting["statements"]
        engine = _fresh_engine(toy_stats, **self.OPTIONS)
        session = engine.session("alice")
        for statement in statements[:4]:
            session.execute(statement)
        session.recommendation()
        document = json.loads(json.dumps(engine.checkpoint()))
        restored = TuningEngine.restore(
            document,
            WhatIfOptimizer(toy_stats),
            StatsTransitionCosts(toy_stats),
        )
        assert list(_session_counters(restored)) == ["alice"]
        assert _session_counters(restored) == _session_counters(engine)
        assert restored.session("alice").statements_processed == 4
        assert restored.total_work == engine.total_work
        assert restored.materialized == engine.materialized

    def _assert_restores_step_identically(self, toy_stats, setting, edit):
        """Checkpoint after the vote, apply ``edit`` to the document, and
        demand the restored run finish like the uninterrupted one."""
        statements = setting["statements"]
        k = self.VOTE_AT + 1
        engine = _fresh_engine(toy_stats, **self.OPTIONS)
        _drive(engine, statements[:k], self.VOTE_AT, setting["votes"])
        document = engine.checkpoint()
        edit(document, statements[:k])
        restored = TuningEngine.restore(
            json.loads(json.dumps(document)),
            WhatIfOptimizer(toy_stats),
            StatsTransitionCosts(toy_stats),
        )
        tail_recs = _drive(
            restored, statements[k:], -1, setting["votes"], start=k
        )
        assert tail_recs == setting["baseline_recs"][k:]
        assert restored.total_work == setting["baseline"].total_work

    def test_documents_with_background_lane_keys_restore(
        self, toy_stats, setting
    ):
        """Version-4 documents written while the background slice and
        pacing were engine options carry them as two extra keys; restore
        ignores them and the run continues step-identically."""
        self._assert_restores_step_identically(
            toy_stats,
            setting,
            lambda document, _: document.update(
                background_batch_size=1, background_pacing=0.008
            ),
        )

    def test_documents_with_session_event_logs_restore(
        self, toy_stats, setting
    ):
        """Version-4 documents written while sessions kept an event log
        carry an ``events`` array per session, and list clients that only
        voted; restore ignores the arrays and the run continues
        step-identically."""

        def add_event_logs(document, analyzed):
            (session,) = document["sessions"]
            session["events"] = [
                ["statement", to_sql(statement), position]
                for position, statement in enumerate(analyzed)
            ]
            document["sessions"].append({
                "client_id": "dba",
                "priority": "normal",
                "submitted": 0,
                "processed": 0,
                "events": [["vote", "+{sales_amount} -{}", 0]],
                "recommended_work": 0.0,
                "realized_work": 0.0,
            })

        self._assert_restores_step_identically(
            toy_stats, setting, add_event_logs
        )

    def test_sessions_section_does_not_grow_with_statements(
        self, toy_stats, setting
    ):
        """An application client and a DBA who only reads, votes and
        adopts: the checkpoint's ``sessions`` section holds counters, so
        its size does not track the number of statements analyzed."""
        statements = setting["statements"]
        engine = _fresh_engine(toy_stats, **self.OPTIONS)
        sizes = {}
        for n in range(1, 65):
            engine.submit("app", statements[n % len(statements)])
            engine.pump()
            if n % 4 == 0:
                engine.recommendation("dba")
                engine.vote("dba", *setting["votes"])
                engine.adopt("dba")
            if n in (8, 64):
                sizes[n] = len(json.dumps(engine.checkpoint()["sessions"]))
        assert abs(sizes[64] - sizes[8]) <= 100, sizes

    @pytest.mark.parametrize("version", [1, 2, 3, 999])
    def test_version_guard(self, toy_stats, version):
        """Only the current format restores: retired versions (including
        the delta-chained version 3) are refused up front."""
        document = _fresh_engine(toy_stats, **self.OPTIONS).checkpoint()
        document["version"] = version
        with pytest.raises(UnsupportedVersion, match="version"):
            TuningEngine.restore(
                document,
                WhatIfOptimizer(toy_stats),
                StatsTransitionCosts(toy_stats),
            )

    def test_wfit_state_version_guard(self, toy_stats):
        engine = _fresh_engine(toy_stats, **self.OPTIONS)
        wfit_state = engine.tuner.export_state()
        wfit_state["version"] = 999
        with pytest.raises(ValueError, match="version"):
            WFIT.restore_state(
                WhatIfOptimizer(toy_stats),
                StatsTransitionCosts(toy_stats),
                wfit_state,
            )


class TestFigure8StepIdentical:
    """The ISSUE acceptance check on the paper's benchmark workload."""

    OPTIONS = dict(idx_cnt=10, state_cnt=64)

    def test_midpoint_checkpoint_is_step_identical(self):
        catalog, stats = build_catalog(scale=0.02)
        workload = generate_workload(catalog, stats, scaled_phases(4), seed=7)
        statements = list(workload.statements)
        midpoint = len(statements) // 2

        baseline = _fresh_engine(stats, **self.OPTIONS)
        baseline_recs = _drive(baseline, statements, -1, None)

        engine = _fresh_engine(stats, **self.OPTIONS)
        _drive(engine, statements[:midpoint], -1, None)
        document = json.loads(json.dumps(engine.checkpoint()))
        restored = TuningEngine.restore(
            document, WhatIfOptimizer(stats), StatsTransitionCosts(stats)
        )
        tail_recs = _drive(
            restored, statements[midpoint:], -1, None, start=midpoint
        )
        assert tail_recs == baseline_recs[midpoint:]
        assert restored.total_work == pytest.approx(
            baseline.total_work, abs=TOL * max(1.0, baseline.total_work)
        )
