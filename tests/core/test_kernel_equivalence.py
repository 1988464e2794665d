"""Property tests: the bitset WFA is step-for-step identical to the
retained frozenset reference implementation.

For random workloads and partitions of ≤ 4 candidates, the kernel-backed
:class:`repro.core.wfa.WFA` and ``ReferenceWFA`` (``tests/reference.py``)
must produce the same recommendation and the same work-function value for
every configuration after every statement (and after every feedback event).
Synthetic costs are integer-valued, so both implementations perform exact
float arithmetic and the comparison needs no meaningful tolerance.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.wfa import WFA
from repro.optimizer import WhatIfOptimizer, extract_indices
from repro.query import select
from reference import ReferenceWFA
from synth import make_synthetic_instance

#: Work-function values are sums of exact integer-valued floats in both
#: implementations; the tolerance only guards against association noise.
_TOL = 1e-9


def _assert_same_state(kernel: WFA, reference: ReferenceWFA, step: object) -> None:
    assert kernel.recommend() == reference.recommend(), f"at {step}"
    reference_w = reference.work_function()
    kernel_w = kernel.work_function()
    assert set(kernel_w) == set(reference_w)
    for subset, value in reference_w.items():
        assert kernel_w[subset] == pytest.approx(value, abs=_TOL), (
            f"w[{sorted(ix.name for ix in subset)}] diverged at {step}"
        )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    part_size=st.integers(1, 4),
    n_statements=st.integers(1, 12),
    initial_bits=st.integers(0, 15),
)
def test_wfa_matches_reference_on_random_workloads(
    seed, part_size, n_statements, initial_bits
):
    rng = random.Random(seed)
    workload, transitions = make_synthetic_instance(
        rng, [part_size], n_statements
    )
    part = sorted(workload.partition[0])
    initial = frozenset(
        ix for i, ix in enumerate(part) if initial_bits & (1 << i)
    )
    kernel = WFA(part, initial, workload.cost, transitions)
    reference = ReferenceWFA(part, initial, workload.cost, transitions)
    _assert_same_state(kernel, reference, "initialization")
    for statement in workload.statements:
        kernel.analyze_statement(statement)
        reference.analyze_statement(statement)
        _assert_same_state(kernel, reference, statement)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    part_size=st.integers(1, 4),
    n_statements=st.integers(2, 10),
)
def test_wfa_matches_reference_under_feedback(seed, part_size, n_statements):
    """Random DBA votes between statements: the consistent-configuration
    search and the bound-(5.1) raise must agree too."""
    rng = random.Random(seed)
    workload, transitions = make_synthetic_instance(
        rng, [part_size], n_statements
    )
    part = sorted(workload.partition[0])
    kernel = WFA(part, frozenset(), workload.cost, transitions)
    reference = ReferenceWFA(part, frozenset(), workload.cost, transitions)
    vote_rng = random.Random(seed + 1)
    for statement in workload.statements:
        kernel.analyze_statement(statement)
        reference.analyze_statement(statement)
        if vote_rng.random() < 0.5:
            voted = vote_rng.sample(part, vote_rng.randint(0, len(part)))
            split = vote_rng.randint(0, len(voted))
            f_plus = frozenset(voted[:split])
            f_minus = frozenset(voted[split:])
            kernel.apply_feedback(f_plus, f_minus)
            reference.apply_feedback(f_plus, f_minus)
        _assert_same_state(kernel, reference, statement)


class TestMaskProviderPath:
    """The fast path (mask-capable what-if optimizer) must be equivalent to
    driving the same optimizer through the plain frozenset callable."""

    def _statements(self, toy_stats):
        amount = toy_stats.column_stats("shop.sales", "amount")
        date = toy_stats.column_stats("shop.sales", "sale_date")
        lo_a, lo_d = amount.min_value, date.min_value
        out = []
        for k in range(1, 5):
            width_a = amount.domain_width * 0.03 * k
            width_d = date.domain_width * 0.05 * k
            out.append(
                select("shop.sales")
                .where_between("amount", lo_a, lo_a + width_a)
                .where_between("sale_date", lo_d, lo_d + width_d)
                .count_star()
                .build()
            )
        return out

    def test_fast_path_engaged_and_equivalent(self, toy_stats, toy_transitions):
        statements = self._statements(toy_stats)
        part = sorted(extract_indices(statements[0]))[:4]
        assert part, "fixture query must yield candidate indices"

        mask_optimizer = WhatIfOptimizer(toy_stats)
        kernel = WFA(part, frozenset(), mask_optimizer.cost, toy_transitions)
        assert kernel._mask_provider is mask_optimizer  # fast path active

        slow_optimizer = WhatIfOptimizer(toy_stats)
        reference = ReferenceWFA(
            part,
            frozenset(),
            lambda stmt, config: slow_optimizer.cost(stmt, config),
            toy_transitions,
        )
        for statement in statements * 2:  # repeats exercise the memo table
            kernel.analyze_statement(statement)
            reference.analyze_statement(statement)
            _assert_same_state(kernel, reference, statement)

    def test_cost_override_disables_fast_path(self, toy_stats, toy_transitions):
        """A subclass overriding ``cost`` must be honored verbatim — the
        mask fast path would silently bypass the override."""

        class Noisy(WhatIfOptimizer):
            def cost(self, statement, config):
                return 2.0 * super().cost(statement, config)

        statements = self._statements(toy_stats)
        part = sorted(extract_indices(statements[0]))[:3]
        noisy = Noisy(toy_stats)
        kernel = WFA(part, frozenset(), noisy.cost, toy_transitions)
        assert kernel._mask_provider is None
        reference = ReferenceWFA(part, frozenset(), noisy.cost, toy_transitions)
        for statement in statements:
            kernel.analyze_statement(statement)
            reference.analyze_statement(statement)
            _assert_same_state(kernel, reference, statement)
        # The doubled costs actually reached the work function.
        plain = WhatIfOptimizer(toy_stats)
        baseline = WFA(part, frozenset(), plain.cost, toy_transitions)
        for statement in statements:
            baseline.analyze_statement(statement)
        assert kernel.min_work() > baseline.min_work()

    def test_plain_callable_disables_fast_path(self, toy_stats, toy_transitions):
        statements = self._statements(toy_stats)
        part = sorted(extract_indices(statements[0]))[:3]
        optimizer = WhatIfOptimizer(toy_stats)
        wfa = WFA(
            part,
            frozenset(),
            lambda stmt, config: optimizer.cost(stmt, config),
            toy_transitions,
        )
        assert wfa._mask_provider is None
        wfa.analyze_statement(statements[0])  # still works end to end
        assert wfa.statements_analyzed == 1
