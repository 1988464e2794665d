"""Golden regression test for the paper experiments.

Runs the Figure 8 (baseline) and Figure 9 (feedback) drivers at reduced
scale with a fixed seed and asserts the cumulative totWork ratio curves
match the checked-in golden JSON to 1e-6. This pins the end-to-end
numerical behavior of the whole stack — workload generation, the what-if
cost model, the bitset WFA/IBG kernel, OPT, and the feedback machinery —
so a perf-motivated refactor cannot silently shift the science.

Figure 12 (automatic candidate maintenance against the fixed partition)
runs at the same parameters, with the context's ``idx_cnt``, and is pinned
exactly (``==``, notes included) in ``tests/golden/figure12_small.json``.

Regenerate (after an *intentional* behavior change) with:

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest tests/bench/test_golden_regression.py

and commit the diff of the golden files alongside an explanation of why
the curves moved.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.bench import figure12_auto, figure8_baseline, figure9_feedback, get_context

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "golden" / "figures_small.json"
FIGURE12_PATH = GOLDEN_PATH.with_name("figure12_small.json")

#: Reduced-scale, fixed-seed experiment parameters (shared with the harness
#: tests' tiny context so the session-scoped context cache is reused).
PARAMS = dict(per_phase=6, scale=0.02, seed=5, idx_cnt=10, state_counts=(64, 32))

_TOL = 1e-6


@pytest.fixture(scope="module")
def golden_context():
    return get_context(**PARAMS)


def _curves_as_json(result):
    """FigureResult curves with string checkpoint keys (JSON round-trip safe)."""
    return {
        label: {str(n): value for n, value in series.items()}
        for label, series in result.curves.items()
    }


def _run_figures(context):
    return {
        "figure8": _curves_as_json(figure8_baseline(context)),
        "figure9": _curves_as_json(figure9_feedback(context)),
    }


def test_totwork_curves_match_golden(golden_context):
    actual = _run_figures(golden_context)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden regenerated at {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"golden file missing; run with REPRO_REGEN_GOLDEN=1 to create {GOLDEN_PATH}"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(actual) == set(golden)
    for figure, curves in golden.items():
        assert set(actual[figure]) == set(curves), f"{figure} curve labels changed"
        for label, series in curves.items():
            actual_series = actual[figure][label]
            assert set(actual_series) == set(series), (
                f"{figure}/{label} checkpoints changed"
            )
            for checkpoint, value in series.items():
                assert actual_series[checkpoint] == pytest.approx(
                    value, abs=_TOL
                ), f"{figure}/{label} at q={checkpoint}"


def test_figure12_matches_golden_exactly(golden_context):
    result = figure12_auto(golden_context)
    # Through a JSON round trip: floats round-trip exactly (repr).
    actual = json.loads(json.dumps({
        "curves": _curves_as_json(result), "notes": result.notes,
    }))
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        FIGURE12_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden regenerated at {FIGURE12_PATH}")
    assert FIGURE12_PATH.exists(), (
        f"golden file missing; run with REPRO_REGEN_GOLDEN=1 to create {FIGURE12_PATH}"
    )
    assert actual == json.loads(FIGURE12_PATH.read_text())
