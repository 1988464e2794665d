"""Tests for the index value object and physical sizing."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle

import pytest

from reference import ReferenceIndexSizer
from repro.db import Index, IndexSizer, build_catalog, build_toy_catalog
from repro.db.index import RID_WIDTH


class TestIndexObject:
    def test_validation(self):
        with pytest.raises(ValueError):
            Index("unqualified", ("a",))
        with pytest.raises(ValueError):
            Index("d.t", ())
        with pytest.raises(ValueError):
            Index("d.t", ("a", "a"))

    def test_hashable_and_ordered(self):
        a = Index("d.t", ("a",))
        b = Index("d.t", ("b",))
        ab = Index("d.t", ("a", "b"))
        assert a < b
        assert a < ab  # shorter tuple with same head sorts first
        assert len({a, b, ab, Index("d.t", ("a",))}) == 3

    def test_hash_is_the_field_tuple_hash_computed_once(self):
        index = Index("d.t", ("a", "b"))
        assert hash(index) == hash(("d.t", ("a", "b")))
        assert vars(index)["_hash"] == hash(index)
        assert [f.name for f in dataclasses.fields(index)] == ["table", "columns"]
        assert repr(index) == "Index(table='d.t', columns=('a', 'b'))"
        assert index.to_payload() == {"table": "d.t", "columns": ["a", "b"]}

    def test_cached_hash_does_not_survive_pickle_or_copy(self):
        index = Index("d.t", ("a",))
        hash(index)
        for clone in (
            copy.copy(index), copy.deepcopy(index),
            pickle.loads(pickle.dumps(index)),
        ):
            assert "_hash" not in vars(clone)
            assert clone == index and not clone < index
            assert hash(clone) == hash(index)

    def test_name(self):
        index = Index("tpch.lineitem", ("l_shipdate", "l_partkey"))
        assert index.name == "ix_lineitem_l_shipdate_l_partkey"

    def test_covers(self):
        index = Index("d.t", ("a", "b", "c"))
        assert index.covers(("a", "c"))
        assert index.covers(())
        assert not index.covers(("a", "z"))

    def test_leading_column(self):
        assert Index("d.t", ("x", "y")).leading_column == "x"

    def test_str(self):
        assert str(Index("d.t", ("a", "b"))) == "d.t(a, b)"


class TestIndexSizer:
    @pytest.fixture()
    def sizer(self):
        _, stats = build_toy_catalog(rows=200_000)
        return IndexSizer(stats), stats

    def test_entry_width(self, sizer):
        sizer, stats = sizer
        index = Index("shop.sales", ("sale_id",))
        table = stats.catalog.table("shop.sales")
        assert sizer.entry_width(index) == table.column("sale_id").byte_width + RID_WIDTH

    def test_leaf_pages_scale_with_rows(self, sizer):
        sizer, _ = sizer
        narrow = Index("shop.sales", ("sale_id",))
        wide = Index("shop.sales", ("sale_id", "customer_id", "amount"))
        assert sizer.leaf_pages(wide) > sizer.leaf_pages(narrow)

    def test_height_reasonable(self, sizer):
        sizer, _ = sizer
        index = Index("shop.sales", ("sale_id",))
        assert 1 <= sizer.height(index) <= 4

    def test_size_includes_inner_levels(self, sizer):
        sizer, _ = sizer
        index = Index("shop.sales", ("sale_id",))
        assert sizer.size_pages(index) >= sizer.leaf_pages(index)

    def test_small_table_single_level(self):
        _, stats = build_toy_catalog(rows=100)
        sizer = IndexSizer(stats)
        index = Index("shop.sales", ("sale_id",))
        assert sizer.leaf_pages(index) == 1
        assert sizer.height(index) == 1

    def test_memoized_facts_equal_the_unmemoized_sizer(self):
        """Every index of the benchmark catalog, asked twice: the memo
        answers what the seed's per-call computation gives."""
        catalog, stats = build_catalog(scale=0.02)
        sizer = IndexSizer(stats)
        reference = ReferenceIndexSizer(stats)
        indices = [
            Index(table.qualified_name, columns)
            for table in catalog.tables
            for width in (1, 2)
            for columns in itertools.permutations(
                [column.name for column in table.columns], width
            )
        ]
        for _ in range(2):
            for index in indices:
                for fact in ("entries_per_page", "leaf_pages", "height",
                             "size_pages"):
                    assert getattr(sizer, fact)(index) == getattr(
                        reference, fact
                    )(index), (fact, index)
