"""Property test: the mask-based ``repartition`` warm start equals the
set-based oracle exactly.

:meth:`repro.core.wfa_plus.WFAPlus.repartition`, which WFIT's
``_repartition`` calls, seeds every new part's work function by local mask
(Figure 5, lines 6–7); ``candidate_oracles`` keeps the original frozenset
computation. From a tuned auto-mode state, random
new partitions — indices kept, dropped and never monitored before,
including an initially materialized index that left the candidate set (the
line-7 drop term), and old parts kept verbatim — must give every new part
the oracle's ``w`` vector, ``==`` value for value, on both work-function
kernel backends. Every new part's ``export_state()`` (``w``,
``recommendation_mask``, ``statements_analyzed``) must equal that of a
part rebuilt from the oracle's vector, including the parts ``repartition``
keeps instead of rebuilding.
"""

from __future__ import annotations

import pytest
from hypothesis import event, given, settings, strategies as st

from candidate_oracles import reference_warm_start
from repro.core.wfa_kernel import available_backends, force_backend
from repro.core.wfit import WFIT
from repro.db import StatsTransitionCosts
from repro.optimizer import WhatIfOptimizer, extract_indices
from repro.workload import generate_workload, scaled_phases


@pytest.fixture(scope="module")
def tuned(bench_catalog):
    """``(stats, export_state(), S0)`` after an auto-mode run with votes."""
    catalog, stats = bench_catalog
    statements = list(
        generate_workload(catalog, stats, scaled_phases(3), seed=21).statements
    )
    initial = frozenset(sorted(extract_indices(statements[0]))[:2])
    tuner = WFIT(
        WhatIfOptimizer(stats), StatsTransitionCosts(stats),
        initial_config=initial, idx_cnt=8, state_cnt=64,
    )
    for position, statement in enumerate(statements, start=1):
        tuner.analyze_statement(statement)
        if position % 5 == 0:
            recommended = sorted(tuner.recommend())
            if recommended:
                tuner.feedback(frozenset(), {recommended[0]})
    assert tuner.repartition_count > 0
    assert max(len(part) for part in tuner.partition) >= 2
    return stats, tuner.export_state(), initial


def _draw_partition(data, pool, required, old_parts):
    """A random partition of ``required`` plus a random subset of ``pool``,
    keeping a random selection of ``old_parts`` verbatim."""
    verbatim = data.draw(st.lists(
        st.booleans(), min_size=len(old_parts), max_size=len(old_parts)
    ))
    kept = [part for part, k in zip(old_parts, verbatim) if k]
    taken = frozenset().union(*kept)
    pool = [ix for ix in pool if ix not in taken]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    chosen = [ix for ix, k in zip(pool, keep) if k or ix in required]
    slots = data.draw(st.lists(
        st.integers(0, 3), min_size=len(chosen), max_size=len(chosen)
    ))
    parts = [
        frozenset(ix for ix, slot in zip(chosen, slots) if slot == number)
        for number in range(4)
    ]
    return data.draw(st.permutations(kept + [part for part in parts if part]))


def _repartition_matches_oracle(tuner, new_parts, backend):
    expected = reference_warm_start(tuner, new_parts)
    materialized = tuner.recommend()
    rebuilt = []
    for part, vector in zip(new_parts, expected):
        ordered = sorted(part)
        rebuilt.append({
            "w": vector,
            "recommendation_mask": sum(
                1 << k for k, ix in enumerate(ordered) if ix in materialized
            ),
            "statements_analyzed": 0,
        })
    old = dict(zip(tuner.partition, tuner._plus.instances))
    counts = {part: instance.statements_analyzed for part, instance in old.items()}
    tuner._repartition(new_parts)
    assert list(tuner.partition) == new_parts
    for part, instance, vector, state in zip(
        new_parts, tuner._plus.instances, expected, rebuilt
    ):
        assert instance.kernel_backend == backend
        assert instance.export_state()["w"] == vector
        assert instance.export_state() == state
        if old.get(part) is instance and counts[part] > 0:
            event("a kept part restarted its statement count")


@pytest.mark.parametrize("backend", available_backends())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_warm_start_matches_set_based_oracle(tuned, backend, data):
    stats, state, initial = tuned
    with force_backend(backend):
        tuner = WFIT.restore_state(
            WhatIfOptimizer(stats), StatsTransitionCosts(stats), state
        )
        # Veto S0 so it may leave the candidates; it then returns as a
        # never-monitored index that starts materialized (line 7's drops).
        tuner.feedback(frozenset(), initial)
        others = sorted(tuner.universe - tuner.candidates - initial)
        fresh = data.draw(st.lists(
            st.sampled_from(others), max_size=3, unique=True
        )) if others else []
        pool = sorted((tuner.candidates | set(fresh)) - initial)
        old_parts = [part for part in tuner.partition if not part & initial]
        first = _draw_partition(data, pool, tuner.recommend(), old_parts)
        _repartition_matches_oracle(tuner, first, backend)
        second = _draw_partition(
            data, sorted(set(pool) | initial), tuner.recommend() | initial,
            list(tuner.partition),
        )
        _repartition_matches_oracle(tuner, second, backend)
