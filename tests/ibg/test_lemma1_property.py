"""Property test of IBG Lemma 1 over the bitset-encoded graph.

For randomly generated statements (reads *and* writes with maintenance
charges), the cost read off the IBG must equal a direct what-if
``cost(q, X)`` for **every** ``X ⊆ U`` with ``|U| ≤ 6`` — the guarantee
that lets WFIT answer exponentially many configuration questions from a
handful of optimizer calls. ``used(X)`` must agree with the indices the
plan ``WhatIfOptimizer.explain`` renders for ``X`` uses or maintains.
"""

from __future__ import annotations

import pytest

from repro.core.bitset import iter_submasks, popcount
from repro.ibg.graph import build_ibg
from repro.optimizer import WhatIfOptimizer, extract_indices
from repro.workload import generate_workload, scaled_phases
from reference import used_indices

#: |U| cap: 2^6 = 64 exhaustive configurations per statement.
_MAX_UNIVERSE = 6


@pytest.fixture(scope="module")
def lemma_workload(request):
    catalog, stats = request.getfixturevalue("bench_catalog")
    return generate_workload(catalog, stats, scaled_phases(4), seed=1234)


def _candidate_universe(statement):
    return sorted(extract_indices(statement))[:_MAX_UNIVERSE]


class TestLemma1:
    def test_every_subset_matches_direct_whatif(self, bench_stats, lemma_workload):
        optimizer = WhatIfOptimizer(bench_stats)
        write_statements = 0
        maintained = 0
        for statement in lemma_workload.statements:
            universe = _candidate_universe(statement)
            if not universe:
                continue
            ibg = build_ibg(optimizer, statement, frozenset(universe))
            if statement.is_update:
                write_statements += 1
                if ibg.maintained_indices:
                    maintained += 1
            mask_universe = optimizer.mask_universe
            full = mask_universe.encode(universe)
            for config_mask in iter_submasks(full):
                subset = mask_universe.decode(config_mask)
                direct = optimizer.cost(statement, subset)
                assert ibg.cost_mask(config_mask) == pytest.approx(
                    direct, rel=1e-12
                ), f"{statement!r} with X={sorted(ix.name for ix in subset)}"
        # The workload mix must actually exercise the write path, where
        # maintenance charges are re-added analytically per lookup.
        assert write_statements > 0
        assert maintained > 0

    def test_used_sets_consistent_between_apis(self, bench_stats, lemma_workload):
        optimizer = WhatIfOptimizer(bench_stats)
        for statement in lemma_workload.statements[:20]:
            universe = _candidate_universe(statement)
            if not universe:
                continue
            ibg = build_ibg(optimizer, statement, frozenset(universe))
            mask_universe = optimizer.mask_universe
            full = mask_universe.encode(universe)
            for config_mask in iter_submasks(full):
                used_mask = ibg.used_mask(config_mask)
                assert used_mask & ~config_mask == 0
                plan = optimizer.explain(
                    statement, mask_universe.decode(config_mask)
                )
                assert mask_universe.encode(used_indices(plan)) == used_mask

    def test_lemma1_removal_invariance(self, bench_stats, lemma_workload):
        """cost(X) is unchanged by removing any index outside used(X)."""
        optimizer = WhatIfOptimizer(bench_stats)
        checked = 0
        for statement in lemma_workload.statements[:30]:
            universe = _candidate_universe(statement)
            if not universe:
                continue
            ibg = build_ibg(optimizer, statement, frozenset(universe))
            mask_universe = optimizer.mask_universe
            full = mask_universe.encode(universe)
            for config_mask in iter_submasks(full):
                plan_used = ibg.used_mask(config_mask) & ~mask_universe.project(
                    ibg.maintained_indices
                )
                removable = config_mask & ~plan_used & ~mask_universe.project(
                    ibg.maintained_indices
                )
                if not removable:
                    continue
                bit = removable & -removable
                assert ibg.cost_mask(config_mask & ~bit) == pytest.approx(
                    ibg.cost_mask(config_mask), rel=1e-12
                )
                checked += 1
        assert checked > 0
