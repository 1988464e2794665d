# reprolint: zone=deterministic
"""WFA⁺: divide-and-conquer WFA over a stable partition (§4.2).

WFA⁺ runs one :class:`~repro.core.wfa.WFA` instance per part of a stable
partition ``{C1, …, CK}``. On a stable partition this is *lossless*
(Theorem 4.2: identical recommendations to monolithic WFA over ``C``) while
tracking only ``Σ 2^|Ck|`` configurations instead of ``2^|C|``, and the
competitive ratio drops from ``2^{|C|+1} − 1`` to ``2^{c_max+1} − 1``
(Theorem 4.3).

Feedback is supported here as well (delegated to each part per Figure 4),
so a fixed-partition WFIT — the configuration used by most of the paper's
experiments — is exactly this class.

Each per-part instance runs on the bitset configuration kernel
(:mod:`repro.core.bitset`): when the shared ``cost_fn`` is a mask-capable
what-if optimizer, one statement analyzed across all K parts performs
``Σ 2^|Ck|`` int-keyed cache probes and zero frozenset constructions.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, List, Sequence, Tuple

from ..db.index import Index
from .wfa import WFA, CostFunction

__all__ = ["WFAPlus", "validate_partition"]


def validate_partition(parts: Sequence[AbstractSet[Index]]) -> Tuple[FrozenSet[Index], ...]:
    """Check disjointness/non-emptiness and normalize to frozensets."""
    normalized: List[FrozenSet[Index]] = []
    seen: set = set()
    for part in parts:
        part_set = frozenset(part)
        if not part_set:
            raise ValueError("empty part in partition")
        overlap = seen.intersection(part_set)
        if overlap:
            raise ValueError(f"parts overlap on {sorted(ix.name for ix in overlap)}")
        seen.update(part_set)
        normalized.append(part_set)
    return tuple(normalized)


class WFAPlus:
    """An array of WFA instances, one per part of a stable partition."""

    def __init__(
        self,
        partition: Sequence[AbstractSet[Index]],
        initial_config: AbstractSet[Index],
        cost_fn: CostFunction,
        transitions,
    ) -> None:
        parts = validate_partition(partition)
        initial = frozenset(initial_config)
        candidates = frozenset().union(*parts) if parts else frozenset()
        stray = initial - candidates
        if stray:
            raise ValueError(
                f"initial config contains non-candidate indices: "
                f"{sorted(ix.name for ix in stray)}"
            )
        self._parts = parts
        self._instances: List[WFA] = [
            WFA(sorted(part), initial & part, cost_fn, transitions)
            for part in parts
        ]
        self._statements_analyzed = 0

    # -- introspection ---------------------------------------------------------

    @property
    def partition(self) -> Tuple[FrozenSet[Index], ...]:
        return self._parts

    @property
    def instances(self) -> Tuple[WFA, ...]:
        return tuple(self._instances)

    @property
    def candidates(self) -> FrozenSet[Index]:
        return frozenset().union(*self._parts) if self._parts else frozenset()

    @property
    def state_count(self) -> int:
        """Total tracked configurations ``Σ 2^|Ck|``."""
        return sum(instance.state_count for instance in self._instances)

    @property
    def max_part_size(self) -> int:
        """``c_max`` of Theorem 4.3."""
        return max((len(part) for part in self._parts), default=0)

    @property
    def kernel_backend(self) -> str:
        """The work-function kernel backend(s) the parts run on (mixed
        partitions report e.g. ``"numpy+python"``)."""
        from .wfa_kernel import combined_backend

        return combined_backend(self._instances)

    @property
    def statements_analyzed(self) -> int:
        return self._statements_analyzed

    # -- the WFA+ interface -------------------------------------------------------

    def analyze_statement(self, statement: object) -> FrozenSet[Index]:
        """Feed the next workload statement to every part."""
        for instance in self._instances:
            instance.analyze_statement(statement)
        self._statements_analyzed += 1
        return self.recommend()

    def recommend(self) -> FrozenSet[Index]:
        """``⋃_k WFA^{(k)}.recommend()``."""
        out: set = set()
        for instance in self._instances:
            out.update(instance.recommend())
        return frozenset(out)

    def feedback(
        self, f_plus: AbstractSet[Index], f_minus: AbstractSet[Index]
    ) -> FrozenSet[Index]:
        """Apply DBA votes (Figure 4) and return the adjusted recommendation.

        Votes on indices outside the candidate set are ignored (they cannot
        be represented in any part's configuration space).
        """
        plus = frozenset(f_plus)
        minus = frozenset(f_minus)
        if plus & minus:
            raise ValueError("F+ and F- must be disjoint")
        for instance in self._instances:
            instance.apply_feedback(plus, minus)
        return self.recommend()

    def min_work(self) -> float:
        """Σ_k min_S w^{(k)}(S) — used for OPT-style lower-bound accounting."""
        return sum(instance.min_work() for instance in self._instances)
