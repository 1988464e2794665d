"""Golden regression test for WFIT's automatic candidate maintenance (§5).

The figure goldens (``figures_small.json``) run fixed partitions only, so
nothing else pins ``chooseCands`` / ``choosePartition`` / ``repartition``.
This test runs the default ``WFIT`` over a reduced-scale phase-shifting
stream, with a DBA vote every few statements, and compares exactly — with
``==``, no tolerance — the partition and the recommendation after every
statement, the repartition count and the final ``export_state()`` document
(work functions, statistics, universe and the partitioner's RNG state)
against the checked-in ``tests/golden/auto_small.json``.

Regenerate (after an *intentional* behavior change only) with:

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest tests/core/test_wfit_auto_golden.py
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.core.wfit import WFIT
from repro.db import StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer
from repro.workload import generate_workload, scaled_phases

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "golden" / "auto_small.json"

#: Stream parameters (the catalog is the shared ``bench_catalog`` fixture,
#: scale 0.02). Seed 7 with 6 statements per phase reaches merged parts of
#: up to 8 indices, about 30 repartitions and 12 votes in a few seconds.
PARAMS = dict(scale=0.02, per_phase=6, seed=7, vote_every=4)


def _names(indices):
    return [str(ix) for ix in sorted(indices)]


def _ranked(indices, tuner):
    now = tuner.statements_analyzed
    return sorted(
        sorted(indices),
        key=lambda ix: -tuner.statistics.current_benefit(ix, now),
    )


def _vote(tuner, turn):
    """Even turns veto the top recommended index, odd turns endorse the top
    monitored candidate that is not recommended (either side falls back to
    the other when empty)."""
    recommended = tuner.recommend()
    vetoes = _ranked(recommended, tuner)
    endorsements = _ranked(tuner.candidates - recommended, tuner)
    if vetoes and (turn % 2 == 0 or not endorsements):
        return frozenset(), frozenset(vetoes[:1])
    if endorsements:
        return frozenset(endorsements[:1]), frozenset()
    return None


def _run(catalog, stats):
    workload = generate_workload(
        catalog, stats, scaled_phases(PARAMS["per_phase"]), seed=PARAMS["seed"]
    )
    tuner = WFIT(WhatIfOptimizer(stats), StatsTransitionCosts(stats))
    steps = []
    for position, statement in enumerate(workload.statements, start=1):
        tuner.analyze_statement(statement)
        step = {
            "partition": [_names(part) for part in tuner.partition],
            "recommendation": _names(tuner.recommend()),
            "vote": None,
        }
        if position % PARAMS["vote_every"] == 0:
            vote = _vote(tuner, position // PARAMS["vote_every"])
            if vote is not None:
                tuner.feedback(*vote)
                step["vote"] = [_names(vote[0]), _names(vote[1])]
        steps.append(step)
    return {
        "params": PARAMS,
        "steps": steps,
        "repartition_count": tuner.repartition_count,
        "final_state": tuner.export_state(),
    }


@pytest.fixture(scope="module")
def auto_run(bench_catalog):
    catalog, stats = bench_catalog
    # Through a JSON round trip, so tuples compare equal to the golden's
    # lists; floats round-trip exactly (repr).
    return json.loads(json.dumps(_run(catalog, stats)))


def test_auto_run_matches_golden(auto_run):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(auto_run, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"golden regenerated at {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"golden file missing; run with REPRO_REGEN_GOLDEN=1 to create {GOLDEN_PATH}"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert auto_run["params"] == golden["params"]
    assert len(auto_run["steps"]) == len(golden["steps"])
    for position, (actual, expected) in enumerate(
        zip(auto_run["steps"], golden["steps"]), start=1
    ):
        assert actual == expected, f"diverged after statement {position}"
    assert auto_run["repartition_count"] == golden["repartition_count"]
    assert auto_run["final_state"] == golden["final_state"]


def test_golden_stream_exercises_auto_mode(auto_run):
    """The stream must keep covering what the golden exists to pin."""
    steps = auto_run["steps"]
    assert max(len(part) for step in steps for part in step["partition"]) >= 2
    assert auto_run["repartition_count"] >= 5
    assert sum(step["vote"] is not None for step in steps) >= 5
