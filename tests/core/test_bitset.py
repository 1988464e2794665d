"""Unit tests for the bitset configuration kernel (repro.core.bitset)."""

from __future__ import annotations

import random

import pytest

from repro.core.bitset import (
    IndexUniverse,
    MaskDeltaTable,
    delta_cost,
    iter_bits,
    iter_submasks,
    popcount,
)
from repro.core.wfa import TransitionCosts
from repro.db import Index


def make_indices(count: int, table: str = "syn.t"):
    return [Index(table, (f"c{i:02d}",)) for i in range(count)]


class TestIndexUniverse:
    def test_constructor_assigns_sorted_positions(self):
        indices = make_indices(5)
        universe = IndexUniverse(reversed(indices))
        assert universe.indices == tuple(sorted(indices))
        for pos, index in enumerate(sorted(indices)):
            assert universe.bit_of(index) == 1 << pos

    def test_encode_decode_roundtrip(self):
        indices = make_indices(8)
        universe = IndexUniverse(indices)
        rng = random.Random(11)
        for _ in range(50):
            subset = frozenset(rng.sample(indices, rng.randint(0, len(indices))))
            mask = universe.encode(subset)
            assert universe.decode(mask) == subset
            assert popcount(mask) == len(subset)

    def test_positions_are_append_only(self):
        indices = make_indices(4)
        universe = IndexUniverse(indices[:2])
        before = {ix: universe.bit_of(ix) for ix in indices[:2]}
        universe.ensure(indices[3])
        universe.ensure(indices[2])
        # Earlier bits are untouched; later registrations append.
        for ix, bit in before.items():
            assert universe.bit_of(ix) == bit
        assert universe.bit_of(indices[3]) == 1 << 2
        assert universe.bit_of(indices[2]) == 1 << 3

    def test_encode_registers_project_ignores(self):
        known, unknown = make_indices(2)
        universe = IndexUniverse([known])
        assert universe.project({known, unknown}) == universe.bit_of(known)
        assert unknown not in universe
        mask = universe.encode({known, unknown})
        assert unknown in universe
        assert popcount(mask) == 2

    def test_table_masks(self):
        a = Index("db.t1", ("x",))
        b = Index("db.t1", ("y",))
        c = Index("db.t2", ("z",))
        universe = IndexUniverse([a, b, c])
        assert universe.table_mask("db.t1") == universe.encode({a, b})
        assert universe.table_mask("db.t2") == universe.encode({c})
        assert universe.table_mask("db.absent") == 0
        assert universe.tables_mask(["db.t1", "db.t2"]) == universe.encode(
            {a, b, c}
        )


class TestMaskIteration:
    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b10110)) == [0b10, 0b100, 0b10000]

    def test_iter_submasks_enumerates_power_set(self):
        mask = 0b1101
        subs = list(iter_submasks(mask))
        assert len(subs) == 1 << popcount(mask)
        assert len(set(subs)) == len(subs)
        assert all(sub & ~mask == 0 for sub in subs)
        assert 0 in subs and mask in subs

    def test_iter_submasks_of_zero(self):
        assert list(iter_submasks(0)) == [0]


class TestMaskDeltaTable:
    def test_matches_naive_per_bit_sum(self):
        rng = random.Random(3)
        create = [float(rng.randint(1, 50)) for _ in range(5)]
        drop = [float(rng.randint(0, 5)) for _ in range(5)]
        table = MaskDeltaTable(create, drop)
        for old in range(32):
            for new in range(32):
                expected = sum(
                    create[i] for i in range(5) if new & ~old & (1 << i)
                ) + sum(drop[i] for i in range(5) if old & ~new & (1 << i))
                assert table.delta(old, new) == pytest.approx(expected)

    def test_round_trip(self):
        table = MaskDeltaTable([10.0, 20.0], [1.0, 2.0])
        assert table.round_trip(0b11) == pytest.approx(33.0)
        assert table.round_trip(0b01) == pytest.approx(11.0)

    def test_mismatched_vectors_rejected(self):
        with pytest.raises(ValueError):
            MaskDeltaTable([1.0], [])


class TestCreateDropAsymmetry:
    """δ is not symmetric: creating pays δ⁺, dropping pays δ⁻ (footnote 4).

    Every δ implementation routes through the kernel, so asymmetry must be
    respected by all of them consistently.
    """

    def test_delta_cost_direction(self):
        a, b = make_indices(2)
        transitions = TransitionCosts(
            create={a: 50.0, b: 70.0}, drop={a: 2.0, b: 3.0}
        )
        assert delta_cost(transitions, set(), {a}) == pytest.approx(50.0)
        assert delta_cost(transitions, {a}, set()) == pytest.approx(2.0)
        # Mixed move: create b, drop a.
        assert delta_cost(transitions, {a}, {b}) == pytest.approx(72.0)
        # Asymmetric in general.
        assert delta_cost(transitions, set(), {a, b}) != pytest.approx(
            delta_cost(transitions, {a, b}, set())
        )

    def test_transition_costs_delegate_to_kernel(self):
        a, b = make_indices(2)
        transitions = TransitionCosts(create={a: 9.0, b: 4.0}, drop={b: 1.5})
        assert transitions.delta({b}, {a}) == pytest.approx(9.0 + 1.5)
        assert transitions.delta({a}, {b}) == pytest.approx(4.0 + 0.0)

    def test_mask_table_matches_set_level_kernel(self):
        indices = make_indices(4)
        rng = random.Random(7)
        transitions = TransitionCosts(
            create={ix: float(rng.randint(1, 60)) for ix in indices},
            drop={ix: float(rng.randint(0, 4)) for ix in indices},
        )
        universe = IndexUniverse(indices)
        table = MaskDeltaTable(
            [transitions.create_cost(ix) for ix in universe.indices],
            [transitions.drop_cost(ix) for ix in universe.indices],
        )
        for old_mask in range(16):
            for new_mask in range(16):
                assert table.delta(old_mask, new_mask) == pytest.approx(
                    delta_cost(
                        transitions,
                        universe.decode(old_mask),
                        universe.decode(new_mask),
                    )
                )

    def test_stats_transitions_route_through_kernel(self, toy_transitions):
        ix = Index("shop.sales", ("amount",))
        create = toy_transitions.create_cost(ix)
        drop = toy_transitions.drop_cost(ix)
        assert create > drop  # the paper's asymmetry: builds dwarf drops
        assert toy_transitions.delta(set(), {ix}) == pytest.approx(create)
        assert toy_transitions.delta({ix}, set()) == pytest.approx(drop)


class TestEncodeDeterminism:
    def test_unseen_batch_registers_sorted_regardless_of_iteration_order(self):
        indices = make_indices(6)
        a = IndexUniverse()
        a.encode(indices)           # list order (already sorted)
        b = IndexUniverse()
        b.encode(reversed(indices))  # reversed iteration order
        c = IndexUniverse()
        c.encode(frozenset(indices))  # hash iteration order
        for ix in indices:
            assert a.bit_of(ix) == b.bit_of(ix) == c.bit_of(ix)
