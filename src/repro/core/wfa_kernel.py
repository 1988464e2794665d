# reprolint: zone=deterministic
"""Array-backed work-function kernels: the WFA hot loop as vector math.

After the plan templates of PR 4 removed the optimizer bottleneck,
``bench_kernel.py --profile`` showed the remaining per-statement cost at
part sizes 8–12 living in the pure-Python work-function update itself:
``O(2^k · k)`` relaxation steps, a ``2^k`` recommendation scan, and a
``2^k`` feedback raise, all as interpreted per-mask loops. This module
re-states those three operations over *contiguous arrays*:

* the work-function vector ``w`` (one float per configuration mask),
* the per-statement cost vector (filled in place by
  :meth:`repro.optimizer.whatif.WhatIfOptimizer.costs_into`),
* the δ prefix sums of :class:`~repro.core.bitset.MaskDeltaTable`
  (``array('d')`` buffers, zero-copy viewable by numpy).

Two interchangeable backends implement the same kernel interface:

:class:`NumpyWFKernel`
    Whole-vector operations with **no per-mask Python loop**. Stage 1
    views a buffer as ``(blocks, 2, run)`` pairs so the middle axis
    separates ``S`` from ``S ∪ {a_i}``. The low ``⌊k/2⌋`` dimensions run
    on a transposed copy of ``w`` and the rest on ``w`` itself, so every
    run holds at least ``2^⌊k/2⌋`` contiguous doubles instead of the
    ``2^i`` of a plain reshape; each dimension is one ``add`` of the
    (drop, create) column to the pair-reversed view and one ``minimum``,
    in the scalar loop's dimension order. Stage 2 computes eligibility
    and scores vectorized, reusing its two δ(S, rec) gathers until
    ``rec`` changes, then replays the exact sequential tie-break scan
    over the (tiny) set of near-minimal candidates; the Figure-4 feedback
    raise is a masked vector update.

:class:`PurePythonWFKernel`
    An ``array``-module twin with the original per-mask loops, kept
    import-clean of numpy so the package runs everywhere.

**Bit-identical by construction.** Every float operation of both backends
replays the scalar implementation's additions and comparisons in the same
order on IEEE-754 doubles, so the two backends — and checkpoints,
golden totWork curves, and the frozenset reference oracle — agree to the
last bit. ``tests/core/test_wfa_kernel_property.py`` enforces this.

Backend selection: :func:`make_kernel` picks numpy when it is importable
and ``REPRO_NO_NUMPY`` is unset/``0``; tests and benchmarks can pin a
backend with :func:`force_backend`.

**Buffer ownership.** Every kernel instance *owns* its buffers: the ``w``
vector, the cost vector, and all integer/float scratch are allocated per
instance in ``__init__`` and never aliased by another instance. On the
numpy backend that includes the views stage 1 relaxes through (over
``w`` and over a float scratch that holds its transposed copy until
stage 2 reuses it), and stage 2's two δ(S, rec) vectors with the ``rec``
they hold. There is no module-level scratch, and the only
module-level mutable state (:data:`_forced_backend`) is a configuration
switch read at construction time, not during :meth:`analyze`. The δ
prefix-sum arrays come from the
:class:`~repro.core.bitset.MaskDeltaTable` the kernel was built over
(per-WFA-instance as well) and are only ever *read* after construction.
A kernel instance is not reentrant: never run two operations on the same
instance concurrently (``tests/core/test_wfa.py`` pins the no-aliasing
property).
"""

from __future__ import annotations

import contextlib
import os
from array import array
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

from .bitset import MaskDeltaTable

try:  # The package must import (and pass tier-1) without numpy.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None  # type: ignore[assignment]

__all__ = [
    "NumpyWFKernel",
    "PurePythonWFKernel",
    "available_backends",
    "default_backend",
    "force_backend",
    "make_kernel",
]

#: Absolute tolerance for float comparisons of work-function values (the
#: same constant the scalar implementation and the frozenset reference
#: oracle use).
_EPS = 1e-7

#: When set (to anything but "" or "0"), the numpy backend is never
#: selected by default — the switch the dual-mode CI job flips so the
#: pure-Python twin cannot rot.
_NO_NUMPY_ENV = "REPRO_NO_NUMPY"

#: Test/benchmark override installed by :func:`force_backend`.
_forced_backend: Optional[str] = None


def _numpy_disabled() -> bool:
    return os.environ.get(_NO_NUMPY_ENV, "") not in ("", "0")


def available_backends() -> List[str]:
    """The backends constructible in this interpreter (env-independent)."""
    out = ["python"]
    if _np is not None:
        out.insert(0, "numpy")
    return out


#: Parts below this state count run the pure-Python twin even when numpy
#: is available: per-op dispatch overhead beats vector width on tiny
#: vectors (measured crossover on the figure-8 workload is at 2^6 states —
#: the python twin is ~1.8× faster at 2^4, numpy ~1.7× faster at 2^7).
_NUMPY_MIN_STATES = 64


def default_backend(state_count: Optional[int] = None) -> str:
    """The backend :func:`make_kernel` picks for a part of ``state_count``
    configurations (None: the large-part default)."""
    if _forced_backend is not None:
        return _forced_backend
    if _np is not None and not _numpy_disabled():
        if state_count is None or state_count >= _NUMPY_MIN_STATES:
            return "numpy"
    return "python"


@contextlib.contextmanager
def force_backend(name: str) -> Iterator[None]:
    """Pin the default backend within a ``with`` block (tests/benchmarks).

    ``name`` must be one of :func:`available_backends`; forcing ``numpy``
    without numpy installed raises immediately rather than at first use.
    """
    global _forced_backend
    if name not in available_backends():
        raise ValueError(
            f"backend {name!r} not available (have {available_backends()})"
        )
    previous = _forced_backend
    _forced_backend = name
    try:
        yield
    finally:
        _forced_backend = previous


def make_kernel(
    table: MaskDeltaTable, backend: Optional[str] = None
) -> Union["PurePythonWFKernel", "NumpyWFKernel"]:
    """A work-function kernel over one part's δ prefix sums.

    ``backend`` overrides the default selection (``"numpy"`` /
    ``"python"``); None picks :func:`default_backend` for the part's
    state count.
    """
    chosen = backend or default_backend(table.size)
    if chosen == "numpy":
        if _np is None:
            raise ValueError("numpy backend requested but numpy is not importable")
        return NumpyWFKernel(table)
    if chosen == "python":
        return PurePythonWFKernel(table)
    raise ValueError(f"unknown work-function kernel backend {chosen!r}")


def _lex_prefers(mask_a: int, mask_b: int) -> bool:
    """Appendix-B tie-break: prefer the set containing the lowest-order
    index where the two differ."""
    diff = mask_a ^ mask_b
    if diff == 0:
        return False
    lowest = diff & (-diff)
    return bool(mask_a & lowest)


def _scan_candidates(
    candidates: Sequence[int], scores: Sequence[float]
) -> int:
    """The sequential Figure-3 selection over pre-filtered candidates.

    Replays the scalar scan exactly — first candidate seeds the running
    best, a strictly (beyond the relative margin) smaller score replaces
    it, and within-margin ties fall to the Appendix-B rule — so both
    backends resolve near-ties identically. ``candidates`` must be in
    ascending mask order, the order the scalar scan visits.
    """
    best_mask = candidates[0]
    best_score = scores[0]
    for pos in range(1, len(candidates)):
        mask = candidates[pos]
        score = scores[pos]
        margin = _EPS * max(1.0, abs(score), abs(best_score))
        if score < best_score - margin:
            best_mask, best_score = mask, score
        elif abs(score - best_score) <= margin and _lex_prefers(mask, best_mask):
            best_mask, best_score = mask, score
    return best_mask


class PurePythonWFKernel:
    """``array``-module work-function kernel (the retained fallback path).

    Same storage layout and float semantics as :class:`NumpyWFKernel`;
    the per-dimension relaxation and the scans are per-mask Python loops
    over ``array('d')`` buffers.
    """

    backend = "python"

    __slots__ = ("_table", "_size", "_k", "_create", "_drop", "_w", "costs")

    def __init__(self, table: MaskDeltaTable) -> None:
        self._table = table
        size = table.size
        self._size = size
        self._k = size.bit_length() - 1
        create_sum = table.create_sum
        drop_sum = table.drop_sum
        self._create = [create_sum[1 << i] for i in range(self._k)]
        self._drop = [drop_sum[1 << i] for i in range(self._k)]
        self._w = array("d", bytes(8 * size))
        #: The per-statement cost vector; callers fill it in place
        #: (``WhatIfOptimizer.costs_into``) before :meth:`analyze`.
        self.costs = array("d", bytes(8 * size))

    # -- state ---------------------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    def reset_from_delta(self, initial_mask: int) -> None:
        """``w0(S) = δ(S0, S)`` for every configuration."""
        delta = self._table.delta
        w = self._w
        for mask in range(self._size):
            w[mask] = delta(initial_mask, mask)

    def load_w(self, values: Sequence[float]) -> None:
        self._w = array("d", values)

    def export_w(self) -> List[float]:
        return self._w.tolist()

    def work_value(self, mask: int) -> float:
        return self._w[mask]

    def min_work(self) -> float:
        return min(self._w)

    # -- the three kernel operations ----------------------------------------

    def analyze(self, rec: int) -> int:
        """Stage-1 relaxation + fused stage-2 scan over :attr:`costs`.

        Returns the new recommendation mask; ``w`` is updated in place.
        The loops run over plain-float lists (``array('d')`` item access
        boxes a float per read, which costs ~20% at part size 12) and the
        result is stored back into the array buffer.
        """
        size = self._size
        stored = self._w
        costs = self.costs
        base = [stored[mask] + costs[mask] for mask in range(size)]
        w = base[:]

        # Stage 1: per-dimension min-plus relaxation over the separable δ.
        for i in range(self._k):
            bit = 1 << i
            create = self._create[i]
            drop = self._drop[i]
            for mask in range(size):
                if mask & bit:
                    continue
                with_bit = mask | bit
                lo, hi = w[mask], w[with_bit]
                alt_hi = lo + create
                if alt_hi < hi:
                    w[with_bit] = alt_hi
                alt_lo = hi + drop
                if alt_lo < lo:
                    w[mask] = alt_lo
        stored[:] = array("d", w)

        # Stage 2: minimum score subject to the p[S] membership condition
        # (w'[S] = w[S] + cost(q, S), i.e. no final transition), fused into
        # one scan; δ to the current recommendation is two prefix-sum reads.
        create_sum = self._table.create_sum
        drop_sum = self._table.drop_sum
        best_mask: Optional[int] = None
        best_score = float("inf")
        for mask in range(size):
            value = w[mask]
            if abs(value - base[mask]) > _EPS * max(1.0, abs(value)):
                continue
            score = value + create_sum[rec & ~mask] + drop_sum[mask & ~rec]
            if best_mask is None:
                best_mask, best_score = mask, score
                continue
            margin = _EPS * max(1.0, abs(score), abs(best_score))
            if score < best_score - margin:
                best_mask, best_score = mask, score
            elif abs(score - best_score) <= margin and _lex_prefers(mask, best_mask):
                best_mask, best_score = mask, score
        if best_mask is None:
            # Numerically impossible per Lemma 9.2 of [3], but stay robust:
            # fall back to the plain minimum-score state, resolving exact
            # ties with the same Appendix-B rule as the main scan.
            best_mask = 0
            best_score = w[0] + create_sum[rec] + drop_sum[0]
            for mask in range(1, size):
                score = w[mask] + create_sum[rec & ~mask] + drop_sum[mask & ~rec]
                if score < best_score or (
                    score == best_score and _lex_prefers(mask, best_mask)
                ):
                    best_mask, best_score = mask, score
        return best_mask

    def feedback(self, plus_mask: int, minus_mask: int, rec: int) -> int:
        """The Figure-4 raise relative to the vote-consistent recommendation.

        Returns the new recommendation mask; ``w`` is raised in place so
        every configuration respects the score bound (5.1).
        """
        new_rec = (rec & ~minus_mask) | plus_mask
        w = self._w
        rec_value = w[new_rec]
        create_sum = self._table.create_sum
        drop_sum = self._table.drop_sum
        for mask in range(self._size):
            consistent = (mask & ~minus_mask) | plus_mask
            # δ(mask, consistent) + δ(consistent, mask) — a round trip over
            # exactly the bits the votes flip.
            flip = mask ^ consistent
            min_diff = create_sum[flip] + drop_sum[flip]
            diff = (
                w[mask]
                + create_sum[new_rec & ~mask]
                + drop_sum[mask & ~new_rec]
                - rec_value
            )
            if diff < min_diff:
                w[mask] += min_diff - diff
        return new_rec


class NumpyWFKernel:
    """Vectorized work-function kernel (numpy ``float64``/``int64``).

    Indexing restriction: local masks are at most ``2^20`` (the WFA part
    cap), far inside int64, so every bit operation of the scalar kernel
    maps directly onto int64 vector ops.
    """

    backend = "numpy"

    __slots__ = (
        "_table", "_size", "_k",
        "_cs", "_ds", "_masks", "_not_masks",
        "_w", "costs", "_base", "_i1", "_i2", "_f1", "_f2", "_f3",
        "_to_wt", "_from_wt", "_low_steps", "_high_steps",
        "_delta_rec", "_rec_create", "_rec_drop",
    )

    def __init__(self, table: MaskDeltaTable) -> None:
        self._table = table
        size = table.size
        self._size = size
        k = self._k = size.bit_length() - 1
        # Zero-copy views over the shared array('d') prefix sums: the
        # scalar delta() reads and these gathers see the same memory.
        self._cs = _np.frombuffer(table.create_sum, dtype=_np.float64)
        self._ds = _np.frombuffer(table.drop_sum, dtype=_np.float64)
        self._masks = _np.arange(size, dtype=_np.int64)
        self._not_masks = _np.bitwise_not(self._masks)
        self._w = _np.zeros(size, dtype=_np.float64)
        #: The per-statement cost vector (filled in place by callers).
        self.costs = _np.empty(size, dtype=_np.float64)
        self._base = _np.empty(size, dtype=_np.float64)
        # Integer / float scratch, reused across statements.
        self._i1 = _np.empty(size, dtype=_np.int64)
        self._i2 = _np.empty(size, dtype=_np.int64)
        self._f1 = _np.empty(size, dtype=_np.float64)
        self._f2 = _np.empty(size, dtype=_np.float64)
        self._f3 = _np.empty(size, dtype=_np.float64)

        # Stage 1's layout. Viewed as (high bits, low bits), w has rows of
        # 2^low doubles; the low ⌊k/2⌋ dimensions relax on a transposed
        # copy held in _f3, laid out (low bits, high bits), and the rest
        # on w itself, so each dimension's halves are runs of at least
        # 2^⌊k/2⌋ contiguous doubles. _f3 is free until stage 2 and
        # feedback write it. A step is (the pairs view, its pair-reversed
        # view, the (drop, create) column, the scratch the sum goes to),
        # all built here once.
        low = k // 2
        high = k - low
        wt_grid = self._f3.reshape(1 << low, 1 << high)
        self._to_wt = (wt_grid, self._base.reshape(1 << high, 1 << low).T)
        self._from_wt = (self._w.reshape(1 << high, 1 << low), wt_grid.T)
        steps: List[Tuple[Any, Any, Any, Any]] = []
        for i in range(k):
            # Bit i of S is bit i + high of its position in the copy.
            buffer, shift = (self._f3, i + high) if i < low else (self._w, i)
            pairs = buffer.reshape(-1, 2, 1 << shift)
            costs = _np.array(
                [self._ds[1 << i], self._cs[1 << i]], dtype=_np.float64
            ).reshape(1, 2, 1)
            steps.append(
                (pairs, pairs[:, ::-1, :], costs, self._f1.reshape(pairs.shape))
            )
        self._low_steps = steps[:low]
        self._high_steps = steps[low:]

        # δ(S, rec)'s two gathers, kept for the rec they were taken for.
        self._delta_rec = -1
        self._rec_create = _np.empty(size, dtype=_np.float64)
        self._rec_drop = _np.empty(size, dtype=_np.float64)

    # -- state ---------------------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    def reset_from_delta(self, initial_mask: int) -> None:
        # δ(S0, S) = create_sum[S \ S0] + drop_sum[S0 \ S], summed in the
        # scalar order (create first).
        _np.bitwise_and(self._masks, ~initial_mask, out=self._i1)
        _np.bitwise_and(self._not_masks, initial_mask, out=self._i2)
        _np.take(self._cs, self._i1, out=self._w)
        _np.take(self._ds, self._i2, out=self._f1)
        self._w += self._f1

    def load_w(self, values: Sequence[float]) -> None:
        self._w[:] = _np.asarray(values, dtype=_np.float64)

    def export_w(self) -> List[float]:
        return self._w.tolist()

    def work_value(self, mask: int) -> float:
        return float(self._w[mask])

    def min_work(self) -> float:
        return float(self._w.min())

    # -- the three kernel operations ----------------------------------------

    def _scores_into(self, values: Any, rec: int, out: Any) -> None:
        """``score(S) = value(S) + δ(S, rec)`` with the scalar's summation
        order: (value + create_sum[rec \\ S]) + drop_sum[S \\ rec].

        The two δ gathers are reused until ``rec`` changes. ``out`` must
        be a full-size float buffer distinct from ``values``.
        """
        if rec != self._delta_rec:
            _np.bitwise_and(self._not_masks, rec, out=self._i1)
            _np.bitwise_and(self._masks, ~rec, out=self._i2)
            _np.take(self._cs, self._i1, out=self._rec_create)
            _np.take(self._ds, self._i2, out=self._rec_drop)
            self._delta_rec = rec
        _np.add(self._rec_create, values, out=out)
        out += self._rec_drop

    def analyze(self, rec: int) -> int:
        size = self._size
        w = self._w
        base = self._base
        _np.add(w, self.costs, out=base)

        # Stage 1: per dimension, one add puts S ∪ {a_i} + drop and
        # S + create (the pair-reversed view plus the (drop, create)
        # column) in the scratch, and one minimum relaxes both halves in
        # place. Both alternatives read the pre-dimension pair values and
        # the dimensions run in order 0 … k−1, exactly like the scalar
        # loop. The low dimensions start from base transposed into _f3.
        _np.copyto(*self._to_wt)
        for pairs, swapped, costs, alt in self._low_steps:
            _np.add(swapped, costs, out=alt)
            _np.minimum(pairs, alt, out=pairs)
        _np.copyto(*self._from_wt)
        for pairs, swapped, costs, alt in self._high_steps:
            _np.add(swapped, costs, out=alt)
            _np.minimum(pairs, alt, out=pairs)

        # Stage 2, vectorized: eligibility (the p[S] membership test) and
        # scores for all masks, then the exact sequential tie-break scan
        # over the few candidates within a conservatively inflated margin
        # of the eligible minimum (every mask the scalar scan could ever
        # select lies in that band; see _scan_candidates).
        tol = self._f1
        _np.abs(w, out=tol)
        _np.maximum(tol, 1.0, out=tol)
        tol *= _EPS
        gap = self._f2
        _np.subtract(w, base, out=gap)
        _np.abs(gap, out=gap)
        eligible = gap <= tol

        scores = self._f3
        self._scores_into(w, rec, scores)

        if eligible.any():
            s_min = float(scores[eligible].min())
            threshold = s_min + _EPS * (size + 4) * max(1.0, abs(s_min))
            band = eligible & (scores <= threshold)
            candidates = _np.nonzero(band)[0]
            return _scan_candidates(
                candidates.tolist(), scores[candidates].tolist()
            )
        # Numerically impossible fallback (kept for robustness): exact
        # minimum score with the Appendix-B rule on exact ties.
        s_min = scores.min()
        ties = _np.nonzero(scores == s_min)[0].tolist()
        best_mask = ties[0]
        for mask in ties[1:]:
            if _lex_prefers(mask, best_mask):
                best_mask = mask
        return best_mask

    def feedback(self, plus_mask: int, minus_mask: int, rec: int) -> int:
        new_rec = (rec & ~minus_mask) | plus_mask
        w = self._w
        rec_value = float(w[new_rec])
        # consistent = (S \ F−) ∪ F+; flip = S ⊕ consistent; the round-trip
        # bound is create_sum[flip] + drop_sum[flip].
        flip = self._i1
        _np.bitwise_and(self._masks, minus_mask, out=flip)
        _np.bitwise_or(
            flip, _np.bitwise_and(self._not_masks, plus_mask), out=flip
        )
        min_diff = self._f1
        _np.take(self._cs, flip, out=min_diff)
        _np.take(self._ds, flip, out=self._f2)
        min_diff += self._f2

        # diff = ((w + create_sum[rec' \ S]) + drop_sum[S \ rec']) − w[rec'],
        # replaying the scalar summation order.
        diff = self._f3
        self._scores_into(w, new_rec, diff)
        diff -= rec_value

        raise_by = self._f2
        _np.subtract(min_diff, diff, out=raise_by)
        raise_by += w
        _np.copyto(w, raise_by, where=diff < min_diff)
        return new_rec
