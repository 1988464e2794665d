"""Golden regression test for the offline optimum (OPT).

The figure goldens compare OPT only through ratios to 1e-6
(``figures_small.json``) or through the evaluated schedule
(``figure12_small.json``); nothing else pins the dynamic program's own
values. This test compares exactly — with ``==``, floats as
``float.hex`` — the schedule (index names per statement), the
``total_work_series``, the ``lower_bound_series`` and the prefix optima
against the checked-in ``tests/golden/opt_small.json``, on two contexts
of the same stream:

* ``figures`` — the golden figure context (parts of 1–5 indices, so the
  pure-Python work-function kernel runs);
* ``wide`` — ``idx_cnt=20`` under a 500-state budget (parts of 8 and 6
  indices, so the numpy kernel runs where it is installed).

Regenerate (after an *intentional* behavior change only) with:

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest tests/core/test_opt_golden.py
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.bench import get_context

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "golden" / "opt_small.json"

#: The stream of the figure goldens; each context adds its budgets.
STREAM = dict(per_phase=6, scale=0.02, seed=5)
CONTEXTS = {
    "figures": dict(idx_cnt=10, state_counts=(64, 32)),
    "wide": dict(idx_cnt=20, state_counts=(500,)),
}


def _hex(values):
    return [float(value).hex() for value in values]


def _document(name):
    context = get_context(**STREAM, **CONTEXTS[name])
    schedule = context.opt_schedule
    return {
        "schedule": [sorted(str(ix) for ix in config) for config in schedule.schedule],
        "total_work_series": _hex(schedule.total_work_series),
        "lower_bound_series": _hex(schedule.lower_bound_series),
        "prefix_total_work": {
            str(n): float(value).hex()
            for n, value in sorted(schedule.prefix_total_work.items())
        },
    }


def test_opt_matches_golden_exactly():
    actual = {name: _document(name) for name in CONTEXTS}
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden regenerated at {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"golden file missing; run with REPRO_REGEN_GOLDEN=1 to create {GOLDEN_PATH}"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    for name in CONTEXTS:
        assert actual[name] == golden[name], f"OPT on the {name} context"
