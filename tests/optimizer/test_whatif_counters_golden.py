"""Golden regression test for the what-if optimizer's accounting counters.

Every costing request of the default pipeline crosses
:class:`~repro.optimizer.WhatIfOptimizer`: single lookups (``cost``), IBG
waves (``plan_usage_masks``) and the WFA part vectors (``costs_into``,
through the int loop or the numpy dedupe). Refactors of that memo path
must leave ``cache_stats()`` unchanged, so three engine runs compare it
with ``==`` against the checked-in ``tests/golden/whatif_counters_small.json``:

* ``auto`` — a default ``TuningEngine`` (automatic candidate maintenance)
  over the ``auto_small`` stream: single lookups, IBG waves and int-loop
  part vectors all run;
* ``fixed`` — a fixed-partition engine over the same stream with a part of
  6 indices (64 states), which the numpy kernel prices through the dedupe;
* ``fixed`` again under ``force_backend("python")``: memo accounting does
  not depend on the work-function kernel, so it must equal the golden too.

Regenerate (after an *intentional* accounting change only) with:

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest tests/optimizer/test_whatif_counters_golden.py
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict

import pytest

from repro.core.wfa_kernel import available_backends, force_backend
from repro.db import StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer, extract_indices
from repro.service import TuningEngine
from repro.workload import generate_workload, scaled_phases

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "golden" / "whatif_counters_small.json"
)

#: The ``auto_small`` stream (catalog: the shared ``bench_catalog``
#: fixture, scale 0.02) and the fixed partition's part sizes.
PARAMS = dict(scale=0.02, per_phase=6, seed=7, fixed_parts=(6, 4))


def _statements(catalog, stats):
    return generate_workload(
        catalog, stats, scaled_phases(PARAMS["per_phase"]), seed=PARAMS["seed"]
    ).statements


def _fixed_partition(statements):
    """The most often extracted candidates, cut into ``fixed_parts``."""
    counts: Dict[object, int] = {}
    for statement in statements:
        for index in extract_indices(statement):
            counts[index] = counts.get(index, 0) + 1
    ranked = [ix for ix, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    parts, start = [], 0
    for size in PARAMS["fixed_parts"]:
        parts.append(frozenset(ranked[start:start + size]))
        start += size
    return parts


def _run(stats, statements, **options):
    """Counters after feeding ``statements`` one submit and pump at a time,
    plus the number of IBG waves (``plan_usage_masks`` batches) priced."""
    optimizer = WhatIfOptimizer(stats)
    waves = []
    price_wave = optimizer.plan_usage_masks

    def counted(statement, masks):
        waves.append(len(masks))
        return price_wave(statement, masks)

    optimizer.plan_usage_masks = counted  # type: ignore[method-assign]
    engine = TuningEngine(optimizer, StatsTransitionCosts(stats), **options)
    for statement in statements:
        engine.submit("client", statement)
        engine.pump()
    tuner = engine.tuner
    sizes = sorted(len(part) for part in tuner.partition)
    return optimizer.cache_stats(), sizes, tuner.kernel_backend, len(waves)


@pytest.fixture(scope="module")
def stream(bench_catalog):
    catalog, stats = bench_catalog
    statements = _statements(catalog, stats)
    return stats, statements, _fixed_partition(statements)


@pytest.fixture(scope="module")
def auto_run(stream):
    stats, statements, _ = stream
    return _run(stats, statements)


@pytest.fixture(scope="module")
def fixed_run(stream):
    stats, statements, partition = stream
    return _run(stats, statements, fixed_partition=partition)


def _golden():
    assert GOLDEN_PATH.exists(), (
        f"golden file missing; run with REPRO_REGEN_GOLDEN=1 to create {GOLDEN_PATH}"
    )
    return json.loads(GOLDEN_PATH.read_text())


def _as_json(stats):
    return json.loads(json.dumps(stats))


def test_counters_match_golden(auto_run, fixed_run):
    actual = {
        "params": _as_json(PARAMS),
        "auto": _as_json(auto_run[0]),
        "fixed": _as_json(fixed_run[0]),
    }
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"golden regenerated at {GOLDEN_PATH}")
    golden = _golden()
    assert actual["params"] == golden["params"]
    assert actual["auto"] == golden["auto"]
    assert actual["fixed"] == golden["fixed"]


def test_fixed_counters_do_not_depend_on_the_kernel(stream, fixed_run):
    stats, statements, partition = stream
    with force_backend("python"):
        python_stats, _, backend, _ = _run(
            stats, statements, fixed_partition=partition
        )
    assert backend == "python"
    assert python_stats == fixed_run[0]
    assert _as_json(python_stats) == _golden()["fixed"]


def test_runs_exercise_every_costing_path(auto_run, fixed_run):
    """The streams must keep reaching what the golden exists to pin."""
    _, _, auto_backend, auto_waves = auto_run
    assert auto_waves > 0
    assert "python" in auto_backend  # parts under 64 states: the int loop
    _, fixed_sizes, fixed_backend, fixed_waves = fixed_run
    assert fixed_waves == 0
    assert fixed_sizes == sorted(PARAMS["fixed_parts"])
    if "numpy" in available_backends() and not os.environ.get("REPRO_NO_NUMPY"):
        assert fixed_backend == "numpy+python"  # the 6-index part: the dedupe
