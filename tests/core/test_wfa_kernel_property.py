"""Property tests: the numpy and pure-Python work-function kernels are
bit-identical.

The array kernel (:mod:`repro.core.wfa_kernel`) ships two backends — the
vectorized numpy implementation and the retained ``array``-module twin —
that are *by construction* the same float program: every addition,
comparison, and minimum replays the scalar loop's operations in the same
order on IEEE-754 doubles. These tests enforce the consequence: over
random parts (k ≤ 12, so the numpy stage 1 runs every split of its low
⌊k/2⌋ dimensions onto the transposed copy, 0 through 6), random
workloads, and random DBA votes, both backends must produce **exactly
equal** (``==``, no tolerance) ``w`` vectors, recommendations, and
feedback adjustments — including under the reversed-δ asymmetry of
footnote 4 (create ≫ drop, drop ≫ create, and zero-cost directions),
which is where a transposed prefix-sum gather would betray itself, and
while the recommendation holds still and then moves (the numpy stage 2
keeps its δ(S, rec) gathers until rec changes).

Numpy cases skip automatically when numpy is not importable (the
pure-Python twin is then the only backend and trivially agrees with
itself); the dual-mode CI lane covers that interpreter too.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import wfa_kernel
from repro.core.wfa import WFA, TransitionCosts
from repro.db import Index
from synth import make_indices, make_synthetic_instance

requires_numpy = pytest.mark.skipif(
    "numpy" not in wfa_kernel.available_backends(),
    reason="numpy backend not importable in this interpreter",
)

#: Part sizes 1–12: every ⌊k/2⌋ split of the numpy stage 1, 0 through 6
#: (each test also pins k = 12). A statement costs the Python twin
#: 2^k·k steps, so parts of 7 or more are drawn half as often.
_PART_SIZES = st.integers(1, 6) | st.integers(1, 12)


def _twin_wfas(part, initial, cost_fn, transitions):
    """The same WFA instance once per backend."""
    with wfa_kernel.force_backend("numpy"):
        np_wfa = WFA(part, initial, cost_fn, transitions)
    with wfa_kernel.force_backend("python"):
        py_wfa = WFA(part, initial, cost_fn, transitions)
    assert np_wfa.kernel_backend == "numpy"
    assert py_wfa.kernel_backend == "python"
    return np_wfa, py_wfa


def _assert_identical(np_wfa: WFA, py_wfa: WFA, step: object) -> None:
    # Bit-identical, not approximately equal: == on every w value.
    assert np_wfa._kernel.export_w() == py_wfa._kernel.export_w(), f"w diverged at {step}"
    assert np_wfa.recommend() == py_wfa.recommend(), f"rec diverged at {step}"


@requires_numpy
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    part_size=_PART_SIZES,
    n_statements=st.integers(1, 12),
    initial_bits=st.integers(0, 4095),
)
@example(seed=12, part_size=12, n_statements=6, initial_bits=0b100100001010)
def test_backends_identical_on_random_workloads(
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
    np_wfa, py_wfa = _twin_wfas(part, initial, workload.cost, transitions)
    _assert_identical(np_wfa, py_wfa, "initialization")
    for statement in workload.statements:
        np_wfa.analyze_statement(statement)
        py_wfa.analyze_statement(statement)
        _assert_identical(np_wfa, py_wfa, statement)


@requires_numpy
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    part_size=_PART_SIZES,
    n_statements=st.integers(2, 10),
)
@example(seed=12, part_size=12, n_statements=6)
def test_backends_identical_under_feedback(seed, part_size, n_statements):
    """Random DBA votes interleaved with statements: the Figure-4 raise
    (the masked vector update) must adjust both backends identically."""
    rng = random.Random(seed)
    workload, transitions = make_synthetic_instance(
        rng, [part_size], n_statements
    )
    part = sorted(workload.partition[0])
    np_wfa, py_wfa = _twin_wfas(part, frozenset(), workload.cost, transitions)
    vote_rng = random.Random(seed + 1)
    for statement in workload.statements:
        np_wfa.analyze_statement(statement)
        py_wfa.analyze_statement(statement)
        if vote_rng.random() < 0.5:
            voted = vote_rng.sample(part, vote_rng.randint(0, len(part)))
            split = vote_rng.randint(0, len(voted))
            f_plus = frozenset(voted[:split])
            f_minus = frozenset(voted[split:])
            np_wfa.apply_feedback(f_plus, f_minus)
            py_wfa.apply_feedback(f_plus, f_minus)
        _assert_identical(np_wfa, py_wfa, statement)


@requires_numpy
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    part_size=st.integers(1, 5),
    direction=st.sampled_from(["create_heavy", "drop_heavy", "free_drop", "free_create"]),
)
def test_backends_identical_under_delta_asymmetry(seed, part_size, direction):
    """The reversed-δ cases of footnote 4: strongly asymmetric (and
    one-sided zero) transition costs must not expose a swapped
    create/drop prefix-sum gather in either the relaxation, the
    recommendation scan, or the warm-start initialization."""
    rng = random.Random(seed)
    indices = make_indices(part_size)
    create = {}
    drop = {}
    for ix in indices:
        if direction == "create_heavy":
            create[ix], drop[ix] = float(rng.randint(50, 200)), float(rng.randint(0, 3))
        elif direction == "drop_heavy":
            create[ix], drop[ix] = float(rng.randint(0, 3)), float(rng.randint(50, 200))
        elif direction == "free_drop":
            create[ix], drop[ix] = float(rng.randint(1, 100)), 0.0
        else:  # free_create
            create[ix], drop[ix] = 0.0, float(rng.randint(1, 100))
    transitions = TransitionCosts(create=create, drop=drop)

    costs = {}

    def cost_fn(statement, config):
        key = (statement, frozenset(config))
        if key not in costs:
            costs[key] = float(rng.randint(0, 60))
        return costs[key]

    initial = frozenset(rng.sample(indices, rng.randint(0, part_size)))
    np_wfa, py_wfa = _twin_wfas(indices, initial, cost_fn, transitions)
    _assert_identical(np_wfa, py_wfa, "initialization")
    for step in range(8):
        np_wfa.analyze_statement(step)
        py_wfa.analyze_statement(step)
        _assert_identical(np_wfa, py_wfa, step)


@requires_numpy
def test_backends_identical_while_rec_holds_then_moves():
    """Equal-cost statements hold the recommendation fixed, so the numpy
    kernel reuses its δ(S, rec) gathers; a vote, then a ``load_state``
    from another instance, move it, and random statements follow each
    move. Both backends stay ``==`` throughout."""
    rng = random.Random(5)
    workload, transitions = make_synthetic_instance(rng, [8], 12)
    part = sorted(workload.partition[0])

    def cost_fn(statement, config):
        if statement.startswith("flat"):
            return 10.0
        return workload.cost(statement, config)

    initial = frozenset(part[:2])
    np_wfa, py_wfa = _twin_wfas(part, initial, cost_fn, transitions)
    twins = (np_wfa, py_wfa)
    for step in range(4):
        for wfa in twins:
            wfa.analyze_statement(f"flat{step}")
        assert np_wfa.recommend() == initial
        _assert_identical(np_wfa, py_wfa, f"flat{step}")

    for wfa in twins:
        wfa.apply_feedback(frozenset(part[5:7]), frozenset(part[:1]))
    assert np_wfa.recommend() != initial
    for statement in workload.statements[:6]:
        for wfa in twins:
            wfa.analyze_statement(statement)
        _assert_identical(np_wfa, py_wfa, statement)

    with wfa_kernel.force_backend("python"):
        source = WFA(part, frozenset(part[3:6]), cost_fn, transitions)
    for statement in workload.statements[6:]:
        source.analyze_statement(statement)
    state = source.export_state()
    assert state["recommendation_mask"] != np_wfa.export_state()[
        "recommendation_mask"
    ]
    for wfa in twins:
        wfa.load_state(state)
    for statement in workload.statements:
        for wfa in twins:
            wfa.analyze_statement(statement)
        _assert_identical(np_wfa, py_wfa, statement)


@requires_numpy
def test_checkpoint_roundtrips_across_backends():
    """A state exported on one backend loads on the other unchanged —
    service checkpoints stay version- and backend-compatible."""
    rng = random.Random(11)
    workload, transitions = make_synthetic_instance(rng, [4], 6)
    part = sorted(workload.partition[0])
    with wfa_kernel.force_backend("numpy"):
        source = WFA(part, frozenset(part[:1]), workload.cost, transitions)
    for statement in workload.statements:
        source.analyze_statement(statement)
    state = source.export_state()
    # JSON-shaped: plain floats/ints only.
    assert all(isinstance(v, float) for v in state["w"])

    with wfa_kernel.force_backend("python"):
        twin = WFA(part, frozenset(), workload.cost, transitions)
    twin.load_state(state)
    assert twin._kernel.export_w() == source._kernel.export_w()
    assert twin.recommend() == source.recommend()
    assert twin.export_state() == state


@requires_numpy
def test_forced_backend_restores_default():
    before = wfa_kernel.default_backend()
    with wfa_kernel.force_backend("python"):
        assert wfa_kernel.default_backend() == "python"
    assert wfa_kernel.default_backend() == before
    with pytest.raises(ValueError, match="not available"):
        with wfa_kernel.force_backend("fortran"):
            pass  # pragma: no cover


def test_small_parts_prefer_python_backend():
    """Auto-selection is size-aware: tiny parts run the loop twin (it is
    measurably faster below the vectorization crossover)."""
    indices = make_indices(2)
    wfa = WFA(indices, frozenset(), lambda q, X: 1.0, TransitionCosts())
    assert wfa.kernel_backend == "python"
