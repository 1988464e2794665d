"""Tests for the Workload container."""

from __future__ import annotations

import pytest

from repro.query import parse_statement
from repro.workload.trace import Workload


@pytest.fixture()
def workload():
    statements = [
        parse_statement(f"SELECT count(*) FROM d.t WHERE a BETWEEN {i} AND {i + 1}")
        for i in range(10)
    ]
    statements[4] = parse_statement("UPDATE d.t SET b = 1 WHERE a BETWEEN 1 AND 2")
    return Workload(statements, [("alpha", 0), ("beta", 5)])


class TestWorkload:
    def test_len_and_iteration(self, workload):
        assert len(workload) == 10
        assert len(list(workload)) == 10

    def test_counts(self, workload):
        assert workload.update_count == 1
        assert workload.query_count == 9

    def test_prefix_preserves_boundaries(self, workload):
        prefix = workload[:7]
        assert len(prefix) == 7
        assert prefix.phase_boundaries == (("alpha", 0), ("beta", 5))

    def test_prefix_drops_later_boundaries(self, workload):
        prefix = workload[:3]
        assert prefix.phase_boundaries == (("alpha", 0),)

    def test_slice_requires_contiguity(self, workload):
        with pytest.raises(ValueError):
            workload[::2]

    def test_invalid_boundary_rejected(self, workload):
        with pytest.raises(ValueError):
            Workload(list(workload), [("x", 99)])

    def test_summary_mentions_phases(self, workload):
        text = workload.summary()
        assert "alpha" in text and "beta" in text
        assert "10 statements" in text
