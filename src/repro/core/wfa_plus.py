# reprolint: zone=deterministic
"""WFA⁺: divide-and-conquer WFA over a stable partition (§4.2).

WFA⁺ runs one :class:`~repro.core.wfa.WFA` instance per part of a stable
partition ``{C1, …, CK}``. On a stable partition this is *lossless*
(Theorem 4.2: identical recommendations to monolithic WFA over ``C``) while
tracking only ``Σ 2^|Ck|`` configurations instead of ``2^|C|``, and the
competitive ratio drops from ``2^{|C|+1} − 1`` to ``2^{c_max+1} − 1``
(Theorem 4.3).

This class is the one owner of a partition's work functions. WFIT
(:mod:`repro.core.wfit`) adds candidate maintenance and feedback
bookkeeping on top and steps its parts, votes, checkpoints and Figure 5
warm starts through one instance; OPT (:mod:`repro.core.opt`) steps one
and backtracks over the ``w`` and cost vectors its parts record. A
statement updates the parts in two serial phases, in fixed part order:
every part's cost fetch (:meth:`prepare_statement`), then every part's
kernel relaxation (:meth:`relax`).

Each per-part instance runs on the bitset configuration kernel
(:mod:`repro.core.bitset`): when the shared ``cost_fn`` is a mask-capable
what-if optimizer, one statement analyzed across all K parts performs
``Σ 2^|Ck|`` int-keyed cache probes and zero frozenset constructions.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, List, Sequence, Tuple

from ..db.index import Index
from .wfa import WFA, CostFunction
from .wfa_kernel import default_backend

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


def _remap_table(bits: Sequence[int]) -> List[int]:
    """Local mask → mask of ``bits`` for every local mask of a part, where
    ``bits[k]`` is the image of local position ``k`` (0: not mapped). The
    lowest-bit recurrence of :class:`~repro.core.bitset.MaskDeltaTable`."""
    table = [0] * (1 << len(bits))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] | bits[low.bit_length() - 1]
    return table


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
        self._cost_fn = cost_fn
        self._transitions = transitions
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
        """The work-function kernel backend(s) the parts run on.

        Backend selection is per part (size-aware), so a mixed partition
        reports the sorted combination, e.g. ``"numpy+python"``; an empty
        partition reports the large-part default.
        """
        backends = {instance.kernel_backend for instance in self._instances}
        if not backends:
            return default_backend()
        return "+".join(sorted(backends))

    @property
    def statements_analyzed(self) -> int:
        return self._statements_analyzed

    # -- the WFA+ interface -------------------------------------------------------

    def prepare_statement(self, statement: object) -> None:
        """Phase 1: every part fetches the statement's costs, in part order.

        A statement the cost function cannot price raises before any part
        relaxes or counts it.
        """
        for instance in self._instances:
            instance.prepare_statement(statement)

    def relax(self) -> None:
        """Phase 2: every part runs its kernel update, in part order."""
        for instance in self._instances:
            instance.relax()
        self._statements_analyzed += 1

    def analyze_statement(self, statement: object) -> FrozenSet[Index]:
        """Feed the next workload statement to every part: the two phases,
        then the new recommendation."""
        self.prepare_statement(statement)
        self.relax()
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

    # -- repartition (Figure 5) ------------------------------------------------------

    def repartition(
        self,
        new_parts: Sequence[FrozenSet[Index]],
        initial_config: AbstractSet[Index],
    ) -> None:
        """Adopt a new stable partition, preserving work-function evidence.

        ``initial_config`` is the tuner's original S0, which may hold
        indices outside the current candidates. Each new part P starts from
        (Figure 5, lines 6–7)

            w(S) = Σ_old w_old(S ∩ P_old) + δ(S0 ∩ P − C_old, S − C_old)

        by local mask: the sum runs over the old parts that overlap P, in
        old-part order, reading each old part's exported ``w`` through a
        new-to-old local-mask table; the δ term for indices never
        monitored before is summed on its own, then added.

        A new part equal to an old part keeps that part's instance, with
        its statement count restarted at 0. The formula would give it
        0.0 + w_old(S) + 0.0, which is w_old(S) (work values are sums of
        non-negative costs, never −0.0), and the recommendation P ∩ rec,
        which is the old part's own; so its ``export_state()`` is that of
        a rebuilt part. Only old parts that overlap a changed part export
        their ``w``.
        """
        materialized = self.recommend()
        new_candidates = (
            frozenset().union(*new_parts) if new_parts else frozenset()
        )
        uncovered = materialized - new_candidates
        if uncovered:
            raise ValueError(
                "new partition must cover materialized indices; missing "
                f"{sorted(ix.name for ix in uncovered)}"
            )
        old_candidates = self.candidates
        kept = dict(zip(self._parts, self._instances))
        changed = frozenset().union(
            *(part for part in new_parts if part not in kept)
        )
        old_w: Dict[int, List[float]] = {}
        # index -> (old part number, its bit in that part's local mask)
        old_position: Dict[Index, Tuple[int, int]] = {}
        for number, (part, instance) in enumerate(zip(self._parts, self._instances)):
            if not part & changed:
                continue
            old_w[number] = instance.export_state()["w"]
            for k, index in enumerate(sorted(part)):
                old_position[index] = (number, 1 << k)

        initial = frozenset(initial_config)
        new_instances: List[WFA] = []
        for part in new_parts:
            instance = kept.get(part)
            if instance is None:
                instance = self._warm_started(
                    part, old_w, old_position, old_candidates, materialized,
                    initial,
                )
            new_instances.append(instance)
        # Every new part exists by now, so a raise above left the parts as
        # they were.
        for part, instance in zip(new_parts, new_instances):
            if part in kept:
                instance.reset_statement_count()
        self._parts = tuple(new_parts)
        self._instances = new_instances

    def _warm_started(
        self,
        part: FrozenSet[Index],
        old_w: Dict[int, List[float]],
        old_position: Dict[Index, Tuple[int, int]],
        old_candidates: FrozenSet[Index],
        materialized: FrozenSet[Index],
        initial: FrozenSet[Index],
    ) -> WFA:
        """A new part's instance, seeded by Figure 5's lines 6–7."""
        ordered = sorted(part)
        # Per overlapping old part: the image of each new position.
        bits: Dict[int, List[int]] = {}
        for k, index in enumerate(ordered):
            found = old_position.get(index)
            if found is not None:
                number, bit = found
                bits.setdefault(number, [0] * len(ordered))[k] = bit
        values = [0.0] * (1 << len(ordered))
        for number in sorted(bits):
            w = old_w[number]
            values = [
                total + w[old_mask]
                for total, old_mask in zip(values, _remap_table(bits[number]))
            ]
        fresh = self._fresh_delta(ordered, old_candidates, initial)
        values = [total + delta for total, delta in zip(values, fresh)]
        instance = WFA(ordered, initial & part, self._cost_fn, self._transitions)
        instance.load_state({
            "w": values,
            "recommendation_mask": sum(
                1 << k for k, index in enumerate(ordered) if index in materialized
            ),
            "statements_analyzed": 0,
        })
        return instance

    def _fresh_delta(
        self,
        ordered: Sequence[Index],
        old_candidates: AbstractSet[Index],
        initial: AbstractSet[Index],
    ) -> List[float]:
        """Line 7 of Figure 5 by local mask: δ(S0 ∩ P − C_old, S − C_old),
        the cost of creating indices never monitored before (relative to
        the original S0). Sums creates in ascending position, then drops,
        as ``delta_cost`` does."""
        fresh = [
            (k, index) for k, index in enumerate(ordered)
            if index not in old_candidates
        ]
        creates = [
            (k, self._transitions.create_cost(index))
            for k, index in fresh if index not in initial
        ]
        drops = [
            (k, self._transitions.drop_cost(index))
            for k, index in fresh if index in initial
        ]
        out = []
        for mask in range(1 << len(ordered)):
            total = 0.0
            for k, cost in creates:
                if mask >> k & 1:
                    total += cost
            for k, cost in drops:
                if not mask >> k & 1:
                    total += cost
            out.append(total)
        return out

    # -- checkpoint hooks ----------------------------------------------------

    def export_state(self) -> List[Dict[str, object]]:
        """Every part's indices and :meth:`WFA.export_state`, in part order
        (the ``parts`` list of WFIT's checkpoint document)."""
        return [
            {
                "indices": [ix.to_payload() for ix in sorted(part)],
                "state": instance.export_state(),
            }
            for part, instance in zip(self._parts, self._instances)
        ]

    def load_state(self, parts: Sequence[Dict[str, object]]) -> None:
        """Adopt part states exported by :meth:`export_state` from a peer
        over the same partition."""
        if len(parts) != len(self._instances):
            raise ValueError(
                f"state has {len(parts)} parts; this partition has "
                f"{len(self._instances)}"
            )
        for instance, item in zip(self._instances, parts):
            instance.load_state(item["state"])
