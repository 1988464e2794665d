# reprolint: zone=deterministic
"""Bitset configuration kernel: configurations as Python ints.

Every hot loop of WFIT — the work-function update (``O(2^k · k)`` states
per statement and part), the Index Benefit Graph traversal, the what-if
cache, and the randomized partition search — operates on *configurations*:
subsets of the candidate index set. The seed implementation represented
them as ``frozenset`` objects, which makes every cost lookup hash a
container and every transition cost a Python-level set walk. This module
replaces that representation with plain integers.

Encoding
--------
An :class:`IndexUniverse` assigns each candidate :class:`~repro.db.index.Index`
a *bit position*; positions are stable for the lifetime of the universe
(new indices only ever append). A configuration ``X`` is then the int

    mask(X) = Σ_{a ∈ X} 1 << position(a)

which turns the set algebra of the paper into machine-word arithmetic:

===============================  =============================
set expression                   mask expression
===============================  =============================
``X ∪ Y``                        ``x | y``
``X ∩ Y``                        ``x & y``
``X − Y``                        ``x & ~y``
``X ⊆ Y``                        ``x & ~y == 0``
``|X|``                          ``x.bit_count()``
``a ∈ X``                        ``x >> pos(a) & 1``
===============================  =============================

Transition costs
----------------
The paper's δ decomposes into independent per-index create/drop charges
(Appendix A), so for a *part* of ``k`` indices a :class:`MaskDeltaTable`
precomputes the prefix sums ``create_sum[m]`` / ``drop_sum[m]`` for every
``m < 2^k`` in ``O(2^k)`` and answers

    δ(old, new) = create_sum[new & ~old] + drop_sum[old & ~new]

with two array reads — the "popcount over XOR masks" kernel: the indices
that changed are exactly the bits of ``old ^ new``, split by direction.

:func:`delta_cost` is the single set-level implementation of δ shared by
:class:`~repro.core.wfa.TransitionCosts`,
:class:`~repro.db.transitions.StatsTransitionCosts` and WFIT's
repartitioning (it sums in sorted index order, making totals independent
of set iteration order and hence of ``PYTHONHASHSEED``).
"""

from __future__ import annotations

from array import array as _array
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..db.index import Index

__all__ = [
    "IndexUniverse",
    "MaskDeltaTable",
    "delta_cost",
    "iter_bits",
    "iter_submasks",
    "popcount",
]


def popcount(mask: int) -> int:
    """``|X|`` for a configuration mask."""
    return mask.bit_count()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bits of ``mask`` as single-bit ints, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def iter_submasks(mask: int) -> Iterator[int]:
    """Enumerate every submask of ``mask`` (``2^popcount`` of them).

    Order: descending by value, ending with 0. The classic
    ``sub = (sub - 1) & mask`` walk — each step is O(1), so enumerating
    the power set of a part costs one int operation per configuration.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class IndexUniverse:
    """Assigns each candidate index a stable bit position.

    The universe is *append-only*: :meth:`ensure` registers unseen indices
    at the next free position and never re-assigns, so masks encoded at any
    point remain valid for the lifetime of the universe (this is what lets
    the what-if cache key on ints). Indices passed to the constructor —
    and every batch of unseen indices inside :meth:`encode` — register in
    sorted order, so bit assignment depends only on the order of
    registration *events*, never on set iteration order: runs are
    reproducible regardless of ``PYTHONHASHSEED``, and for
    constructor-seeded universes the lowest set bit of a mask corresponds
    to the least index (the deterministic-choice convention of the WFA
    tie-break).

    Per-table bitmasks are maintained incrementally so that "the indices of
    configuration X that live on the tables of statement q" — the paper's
    relevance reduction — is a single ``&``.
    """

    __slots__ = ("_indices", "_position", "_table_masks")

    def __init__(self, indices: Iterable[Index] = ()) -> None:
        self._indices: List[Index] = []
        self._position: Dict[Index, int] = {}
        self._table_masks: Dict[str, int] = {}
        for index in sorted(set(indices)):
            self.ensure(index)

    # -- registration --------------------------------------------------------

    def ensure(self, index: Index) -> int:
        """Return ``index``'s bit position, registering it if unseen."""
        pos = self._position.get(index)
        if pos is None:
            pos = len(self._indices)
            self._position[index] = pos
            self._indices.append(index)
            self._table_masks[index.table] = (
                self._table_masks.get(index.table, 0) | (1 << pos)
            )
        return pos

    def bit_of(self, index: Index) -> int:
        """The single-bit mask of ``index`` (which must be registered)."""
        return 1 << self._position[index]

    def position(self, index: Index) -> Optional[int]:
        """``index``'s bit position, or None if unregistered."""
        return self._position.get(index)

    # -- encode / decode -----------------------------------------------------

    def encode(self, subset: Iterable[Index]) -> int:
        """Mask of ``subset``, registering any unseen index.

        Unseen indices are registered in sorted order (per batch), so bit
        assignment never depends on set iteration order — and therefore not
        on ``PYTHONHASHSEED`` — keeping IBG traversals and cache layouts
        reproducible across runs.
        """
        mask = 0
        position = self._position
        missing: Optional[List[Index]] = None
        for index in subset:
            pos = position.get(index)
            if pos is None:
                if missing is None:
                    missing = []
                missing.append(index)
            else:
                mask |= 1 << pos
        if missing:
            ensure = self.ensure
            for index in sorted(missing):
                mask |= 1 << ensure(index)
        return mask

    def project(self, subset: Iterable[Index]) -> int:
        """Mask of the *registered* members of ``subset`` (ignores the rest).

        The mask analogue of ``frozenset(subset) & candidates``.
        """
        mask = 0
        position = self._position
        for index in subset:
            pos = position.get(index)
            if pos is not None:
                mask |= 1 << pos
        return mask

    def decode(self, mask: int) -> FrozenSet[Index]:
        """The configuration a mask encodes."""
        indices = self._indices
        return frozenset(
            indices[bit.bit_length() - 1] for bit in iter_bits(mask)
        )

    def index_at(self, bit: int) -> Index:
        """The index a single-bit mask encodes."""
        return self._indices[bit.bit_length() - 1]

    def table_mask(self, table: str) -> int:
        """Mask of every registered index on ``table``."""
        return self._table_masks.get(table, 0)

    def tables_mask(self, tables: Iterable[str]) -> int:
        """Mask of every registered index on any of ``tables``."""
        mask = 0
        table_masks = self._table_masks
        for table in tables:
            mask |= table_masks.get(table, 0)
        return mask

    # -- checkpoint hooks ----------------------------------------------------

    def export_order(self) -> Tuple[Index, ...]:
        """The registered indices in bit-position order (checkpoint hook).

        Replaying this sequence through :meth:`extend_order` reproduces the
        exact bit assignment, so masks (and mask-keyed cache layouts)
        serialized at checkpoint time stay meaningful after restore.
        """
        return tuple(self._indices)

    def extend_order(self, indices: Iterable[Index]) -> None:
        """Register ``indices`` sequentially (the restore hook).

        Unlike the constructor — which sorts its seed batch — this
        registers in the given order: replaying an :meth:`export_order`
        sequence into a fresh universe reproduces the exact bit
        assignment (and hence mask-keyed cache layout) recorded at
        checkpoint time. Already-registered indices keep their position.
        """
        for index in indices:
            self.ensure(index)

    # -- container protocol --------------------------------------------------

    @property
    def indices(self) -> Tuple[Index, ...]:
        return tuple(self._indices)

    def __len__(self) -> int:
        return len(self._indices)

    def __contains__(self, index: Index) -> bool:
        return index in self._position


class MaskDeltaTable:
    """Precomputed transition costs δ over one part's local masks.

    Given per-bit create/drop costs for a part of ``k`` indices, builds the
    ``2^k`` prefix-sum arrays in one pass (each mask extends the mask with
    its lowest bit cleared), after which ``delta`` is two array lookups —
    the operation the WFA recommendation loop and the feedback
    consistent-configuration search execute ``O(2^k)`` times per statement.

    ``create_sum`` / ``drop_sum`` are contiguous ``array('d')`` buffers:
    indexable like the lists they replaced, and — because ``array``
    implements the buffer protocol — zero-copy viewable as float64
    vectors by the numpy work-function kernel
    (:mod:`repro.core.wfa_kernel`), so the scalar ``delta()`` reads and
    the kernel's vector gathers share one allocation.
    """

    __slots__ = ("create_sum", "drop_sum", "size")

    def __init__(
        self, create: Sequence[float], drop: Sequence[float]
    ) -> None:
        if len(create) != len(drop):
            raise ValueError("create/drop cost vectors must align")
        size = 1 << len(create)
        create_sum = _array("d", bytes(8 * size))
        drop_sum = _array("d", bytes(8 * size))
        for mask in range(1, size):
            low = mask & -mask
            rest = mask ^ low
            pos = low.bit_length() - 1
            create_sum[mask] = create_sum[rest] + create[pos]
            drop_sum[mask] = drop_sum[rest] + drop[pos]
        self.create_sum = create_sum
        self.drop_sum = drop_sum
        self.size = size

    def delta(self, old: int, new: int) -> float:
        """δ(old, new): create what's new, drop what's gone."""
        return self.create_sum[new & ~old] + self.drop_sum[old & ~new]

    def round_trip(self, mask: int) -> float:
        """Σ (δ⁺ + δ⁻) over the indices of ``mask`` (feedback bound 5.1)."""
        return self.create_sum[mask] + self.drop_sum[mask]


class TransitionCostProvider(Protocol):
    """Per-index transition charges, the δ decomposition of Appendix A."""

    def create_cost(self, index: Index) -> float: ...

    def drop_cost(self, index: Index) -> float: ...


def delta_cost(
    transitions: TransitionCostProvider,
    old: AbstractSet[Index],
    new: AbstractSet[Index],
) -> float:
    """δ(old, new) from a per-index cost provider, at the set level.

    The one shared implementation of the transition charge: every index
    entering the configuration pays ``create_cost``, every index leaving
    pays ``drop_cost``. Summation is in sorted index order so the float
    total does not depend on set iteration order.
    """
    total = 0.0
    for index in sorted(new):
        if index not in old:
            total += transitions.create_cost(index)
    for index in sorted(old):
        if index not in new:
            total += transitions.drop_cost(index)
    return total
