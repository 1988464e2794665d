# reprolint: zone=deterministic
"""Reference frozenset implementation of WFA (the pre-kernel seed code).

This module preserves the original pure-``frozenset`` Work Function
Algorithm exactly as it shipped before the bitset kernel
(:mod:`repro.core.bitset`) landed. It exists for two reasons:

* **Equivalence oracle** — the property tests replay random workloads
  through :class:`ReferenceWFA` and the kernel-backed
  :class:`~repro.core.wfa.WFA` and require identical recommendations and
  work-function values at every step (the "speed was not bought with
  correctness" guarantee).
* **Benchmark baseline** — ``benchmarks/bench_kernel.py`` measures the
  kernel's statements/sec speedup against this implementation, which
  reproduces the seed's per-statement costs: every configuration is
  materialized as a ``frozenset`` for each cost lookup and every δ is a
  Python-level walk over the part's indices.

Semantics are identical to the seed ``repro.core.wfa.WFA`` (Figure 3 with
the Appendix-B tie-break, feedback per Figure 4); only the configuration
representation differs. Do not "optimize" this module — its slowness is
the point.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..db.index import Index
from .wfa import CostFunction

__all__ = ["ReferenceWFA"]

#: Absolute tolerance for float comparisons of work-function values (same
#: constant as the kernel implementation).
_EPS = 1e-7


class ReferenceWFA:
    """Seed (frozenset) Work Function Algorithm over one part."""

    def __init__(
        self,
        indices: Sequence[Index],
        initial_config: AbstractSet[Index],
        cost_fn: CostFunction,
        transitions,
        work_values: Optional[Dict[FrozenSet[Index], float]] = None,
        recommendation: Optional[AbstractSet[Index]] = None,
    ) -> None:
        self._indices: Tuple[Index, ...] = tuple(sorted(set(indices)))
        if len(self._indices) > 20:
            raise ValueError(
                f"part of {len(self._indices)} indices would need "
                f"{1 << len(self._indices)} states; repartition first"
            )
        self._bit_of: Dict[Index, int] = {
            ix: 1 << i for i, ix in enumerate(self._indices)
        }
        self._cost_fn = cost_fn
        self._transitions = transitions
        self._create = [transitions.create_cost(ix) for ix in self._indices]
        self._drop = [transitions.drop_cost(ix) for ix in self._indices]
        self._size = 1 << len(self._indices)

        initial_mask = self._mask_of(initial_config)
        if work_values is not None:
            # Same warm-start validation as the kernel WFA (fixed in
            # lockstep): a silently defaulted w[S] = 0 marks S reachable
            # for free, and aliasing keys must not silently overlay.
            values: List[Optional[float]] = [None] * self._size
            for subset, value in work_values.items():
                mask = self._mask_of(subset)
                if values[mask] is not None:
                    raise ValueError(
                        "ambiguous work-function snapshot: two entries "
                        "project onto one configuration"
                    )
                values[mask] = float(value)
            missing = sum(1 for v in values if v is None)
            if missing:
                raise ValueError(
                    f"incomplete work-function snapshot: {missing} of "
                    f"{self._size} configurations have no value"
                )
            self._w = values  # type: ignore[assignment]
        else:
            self._w = [
                self._delta_masks(initial_mask, mask) for mask in range(self._size)
            ]
        if recommendation is not None:
            self._rec = self._mask_of(recommendation)
        else:
            self._rec = initial_mask
        self._statements_analyzed = 0

    # -- mask helpers --------------------------------------------------------

    def _mask_of(self, subset: AbstractSet[Index]) -> int:
        mask = 0
        for index in subset:
            bit = self._bit_of.get(index)
            if bit is not None:
                mask |= bit
        return mask

    def _set_of(self, mask: int) -> FrozenSet[Index]:
        return frozenset(
            ix for i, ix in enumerate(self._indices) if mask & (1 << i)
        )

    def _delta_masks(self, old: int, new: int) -> float:
        total = 0.0
        added = new & ~old
        dropped = old & ~new
        for i in range(len(self._indices)):
            bit = 1 << i
            if added & bit:
                total += self._create[i]
            elif dropped & bit:
                total += self._drop[i]
        return total

    @staticmethod
    def _lex_prefers(mask_a: int, mask_b: int) -> bool:
        """Appendix-B tie-break: prefer the set containing the lowest-order
        index where the two differ."""
        diff = mask_a ^ mask_b
        if diff == 0:
            return False
        lowest = diff & (-diff)
        return bool(mask_a & lowest)

    # -- public properties -----------------------------------------------------

    @property
    def indices(self) -> Tuple[Index, ...]:
        return self._indices

    @property
    def state_count(self) -> int:
        return self._size

    @property
    def statements_analyzed(self) -> int:
        return self._statements_analyzed

    def recommend(self) -> FrozenSet[Index]:
        return self._set_of(self._rec)

    def work_function(self) -> Dict[FrozenSet[Index], float]:
        return {self._set_of(mask): self._w[mask] for mask in range(self._size)}

    def work_value(self, subset: AbstractSet[Index]) -> float:
        return self._w[self._mask_of(subset)]

    def min_work(self) -> float:
        return min(self._w)

    # -- the algorithm -----------------------------------------------------------

    def _costs_of(self, statement: object) -> List[float]:
        return [
            self._cost_fn(statement, self._set_of(mask))
            for mask in range(self._size)
        ]

    def analyze_statement(self, statement: object) -> FrozenSet[Index]:
        """``WFA.analyzeQuery`` of Figure 3; returns the new recommendation."""
        size = self._size
        costs = self._costs_of(statement)
        w = self._w

        new_w = [w[mask] + costs[mask] for mask in range(size)]
        for i in range(len(self._indices)):
            bit = 1 << i
            create = self._create[i]
            drop = self._drop[i]
            for mask in range(size):
                if mask & bit:
                    continue
                with_bit = mask | bit
                lo, hi = new_w[mask], new_w[with_bit]
                alt_hi = lo + create
                if alt_hi < hi:
                    new_w[with_bit] = alt_hi
                alt_lo = hi + drop
                if alt_lo < lo:
                    new_w[mask] = alt_lo

        tolerance = [
            _EPS * max(1.0, abs(new_w[mask])) for mask in range(size)
        ]
        self_path = [
            abs(new_w[mask] - (w[mask] + costs[mask])) <= tolerance[mask]
            for mask in range(size)
        ]
        self._w = new_w
        self._statements_analyzed += 1

        best_mask: Optional[int] = None
        best_score = float("inf")
        for mask in range(size):
            if not self_path[mask]:
                continue
            score = new_w[mask] + self._delta_masks(mask, self._rec)
            if best_mask is None:
                best_mask, best_score = mask, score
                continue
            margin = _EPS * max(1.0, abs(score), abs(best_score))
            if score < best_score - margin:
                best_mask, best_score = mask, score
            elif abs(score - best_score) <= margin and self._lex_prefers(mask, best_mask):
                best_mask, best_score = mask, score
        if best_mask is None:
            # Unreachable numerically (the arg-min of stage 1 always keeps
            # its self path), but stay robust: plain minimum score, exact
            # ties resolved by the same Appendix-B rule as the main scan.
            # (The seed broke ties ascending-by-mask here, contradicting
            # its own _lex_prefers; fixed in lockstep with the kernel.)
            best_mask = 0
            best_score = new_w[0] + self._delta_masks(0, self._rec)
            for mask in range(1, size):
                score = new_w[mask] + self._delta_masks(mask, self._rec)
                if score < best_score or (
                    score == best_score and self._lex_prefers(mask, best_mask)
                ):
                    best_mask, best_score = mask, score
        self._rec = best_mask
        return self.recommend()

    def scores(self) -> Dict[FrozenSet[Index], float]:
        return {
            self._set_of(mask): self._w[mask] + self._delta_masks(mask, self._rec)
            for mask in range(self._size)
        }

    # -- feedback (Figure 4, per-part body) -----------------------------------------

    def apply_feedback(
        self, f_plus: AbstractSet[Index], f_minus: AbstractSet[Index]
    ) -> FrozenSet[Index]:
        """Apply DBA votes to this part; returns the adjusted recommendation."""
        plus_mask = self._mask_of(f_plus)
        minus_mask = self._mask_of(f_minus)
        if plus_mask & minus_mask:
            raise ValueError("F+ and F- must be disjoint")
        new_rec = (self._rec & ~minus_mask) | plus_mask
        self._rec = new_rec
        w = self._w
        rec_value = w[new_rec]
        for mask in range(self._size):
            consistent = (mask & ~minus_mask) | plus_mask
            min_diff = (
                self._delta_masks(mask, consistent)
                + self._delta_masks(consistent, mask)
            )
            diff = w[mask] + self._delta_masks(mask, new_rec) - rec_value
            if diff < min_diff:
                w[mask] += min_diff - diff
        return self.recommend()
