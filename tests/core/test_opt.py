"""Tests for the offline optimum (OPT) and its schedule extraction."""

from __future__ import annotations

import random

import pytest

from repro.core.opt import FeedbackEvent, OfflineOptimizer
from repro.core.wfa import WFA, TransitionCosts
from repro.core.driver import run_online

from reference import brute_force_opt
from synth import make_indices, make_synthetic_instance


class TestFeedbackEvent:
    def test_rejects_overlapping_votes(self):
        a, b = make_indices(2)
        with pytest.raises(ValueError):
            FeedbackEvent(0, frozenset({a}), frozenset({a, b}))

    def test_inversion(self):
        a, b = make_indices(2)
        event = FeedbackEvent(3, frozenset({a}), frozenset({b}))
        flipped = event.inverted()
        assert flipped.position == 3
        assert flipped.f_plus == frozenset({b})
        assert flipped.f_minus == frozenset({a})


class TestOfflineOptimizer:
    def test_matches_exhaustive_search_on_tiny_instance(self):
        """DP result equals brute-force enumeration over all schedules."""
        rng = random.Random(21)
        workload, transitions = make_synthetic_instance(rng, [2], 4)
        indices = workload.indices
        sched = brute_force_opt(
            workload.statements, set(indices), frozenset(), workload.cost, transitions
        )

        def subsets():
            for mask in range(4):
                yield frozenset(
                    ix for i, ix in enumerate(indices) if mask & (1 << i)
                )

        best = float("inf")
        all_subsets = list(subsets())

        def explore(step, previous, acc):
            nonlocal best
            if acc >= best:
                return
            if step == len(workload.statements):
                best = min(best, acc)
                return
            statement = workload.statements[step]
            for config in all_subsets:
                explore(
                    step + 1,
                    config,
                    acc
                    + transitions.delta(previous, config)
                    + workload.cost(statement, config),
                )

        explore(0, frozenset(), 0.0)
        assert sched.total_work == pytest.approx(best, rel=1e-9)
        # With a single part the decomposed bound is exact.
        assert sched.lower_bound == pytest.approx(best, rel=1e-9)

    def test_schedule_achieves_reported_total(self):
        rng = random.Random(22)
        workload, transitions = make_synthetic_instance(rng, [2, 1], 8)
        sched = OfflineOptimizer(
            workload.partition, frozenset(), workload.cost, transitions
        ).run(workload.statements)
        total = 0.0
        previous = frozenset()
        for statement, config in zip(workload.statements, sched.schedule):
            total += transitions.delta(previous, config)
            total += workload.cost(statement, config)
            previous = config
        assert total == pytest.approx(sched.total_work, rel=1e-9)

    def test_series_monotone(self):
        rng = random.Random(23)
        workload, transitions = make_synthetic_instance(rng, [2, 2], 10)
        sched = OfflineOptimizer(
            workload.partition, frozenset(), workload.cost, transitions
        ).run(workload.statements)
        series = sched.total_work_series
        assert all(series[i] <= series[i + 1] + 1e-9 for i in range(len(series) - 1))

    def test_prefix_optimum_never_exceeds_full_schedule_value(self):
        rng = random.Random(24)
        workload, transitions = make_synthetic_instance(rng, [3], 10)
        checkpoints = (2, 5, 8, 10)
        sched = OfflineOptimizer(
            workload.partition, frozenset(), workload.cost, transitions
        ).run(workload.statements, checkpoints=checkpoints)
        for n in checkpoints:
            assert sched.prefix_total_work[n] <= sched.total_work_series[n - 1] + 1e-9

    def test_opt_not_worse_than_wfa(self):
        """On a stable partition, OPT ≤ the online WFA⁺'s total work."""
        for seed in range(6):
            rng = random.Random(seed)
            workload, transitions = make_synthetic_instance(rng, [2, 2], 12)
            sched = OfflineOptimizer(
                workload.partition, frozenset(), workload.cost, transitions
            ).run(workload.statements)
            from repro.core.wfa_plus import WFAPlus
            plus = WFAPlus(
                workload.partition, frozenset(), workload.cost, transitions
            )
            result = run_online(
                plus, workload.statements, workload.cost, transitions
            )
            assert sched.lower_bound <= result.total_work + 1e-6

    def test_events_reconstruct_schedule(self):
        rng = random.Random(25)
        workload, transitions = make_synthetic_instance(rng, [2, 1], 10)
        sched = OfflineOptimizer(
            workload.partition, frozenset(), workload.cost, transitions
        ).run(workload.statements)
        config = set(sched.initial_config)
        events = {e.position: e for e in sched.events()}
        for position, expected in enumerate(sched.schedule):
            event = events.get(position - 1)
            if event is not None:
                config |= set(event.f_plus)
                config -= set(event.f_minus)
            assert frozenset(config) == expected

    def test_bad_events_mirror_good(self):
        rng = random.Random(26)
        workload, transitions = make_synthetic_instance(rng, [2], 10)
        sched = OfflineOptimizer(
            workload.partition, frozenset(), workload.cost, transitions
        ).run(workload.statements)
        for good, bad in zip(sched.events(), sched.bad_events()):
            assert good.f_plus == bad.f_minus
            assert good.f_minus == bad.f_plus

    def test_empty_candidates(self):
        rng = random.Random(27)
        workload, transitions = make_synthetic_instance(rng, [1], 5)
        sched = brute_force_opt(
            workload.statements, frozenset(), frozenset(), workload.cost, transitions
        )
        expected = sum(
            workload.cost(s, frozenset()) for s in workload.statements
        )
        assert sched.total_work == pytest.approx(expected)
        assert all(config == frozenset() for config in sched.schedule)
