"""Interleaved multi-client traces: statement streams tagged by client.

The tuning service multiplexes many clients over one shared WFIT core, so
its replay/benchmark inputs are sequences of ``(client_id, statement)``
pairs rather than bare statement streams. :class:`MultiClientTrace` is
that container, with deterministic constructors:

* :meth:`MultiClientTrace.split` deals one workload's statements across N
  clients (round-robin or seeded-random assignment) *preserving the global
  statement order* — the shape of one traffic stream observed at a proxy.
* :meth:`MultiClientTrace.round_robin` merges independent per-client
  streams into one interleaving, preserving each client's internal order
  (the shape of N independent connections).

Because the shared engine analyzes statements in arrival order, feeding a
trace through ``TuningEngine.pump()`` is equivalent to feeding its
statements, in trace order, to a single WFIT — the determinism property
the service tests pin down.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Mapping, Sequence, Tuple

from ..query.ast import Statement

__all__ = ["MultiClientTrace"]


class MultiClientTrace:
    """An immutable ordered sequence of ``(client_id, statement)`` pairs."""

    def __init__(self, entries: Iterable[Tuple[str, Statement]]) -> None:
        self._entries: Tuple[Tuple[str, Statement], ...] = tuple(
            (str(client), statement) for client, statement in entries
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def split(
        cls,
        statements: Sequence[Statement],
        clients: Sequence[str],
        mode: str = "round_robin",
        seed: int = 0,
    ) -> "MultiClientTrace":
        """Assign each statement (in order) to a client.

        ``mode="round_robin"`` deals statements cyclically;
        ``mode="random"`` draws the client per statement from
        ``random.Random(seed)``. Either way the global statement order is
        the input order.
        """
        if not clients:
            raise ValueError("need at least one client")
        ordered = list(clients)
        if mode == "round_robin":
            return cls(
                (ordered[i % len(ordered)], statement)
                for i, statement in enumerate(statements)
            )
        if mode == "random":
            rng = random.Random(seed)
            return cls(
                (rng.choice(ordered), statement) for statement in statements
            )
        raise ValueError(f"unknown split mode {mode!r}")

    @classmethod
    def round_robin(
        cls, streams: Mapping[str, Sequence[Statement]]
    ) -> "MultiClientTrace":
        """Merge per-client streams by cycling clients in sorted order."""
        remaining = {
            client: list(stream) for client, stream in streams.items()
        }
        order = sorted(remaining)
        entries: List[Tuple[str, Statement]] = []
        position = 0
        while remaining:
            client = order[position % len(order)]
            stream = remaining.get(client)
            if stream:
                entries.append((client, stream.pop(0)))
            if stream is not None and not stream:
                del remaining[client]
                order.remove(client)
                position -= 1  # keep the cycle aligned after removal
            position += 1
        return cls(entries)

    # -- views ---------------------------------------------------------------

    @property
    def entries(self) -> Tuple[Tuple[str, Statement], ...]:
        return self._entries

    @property
    def clients(self) -> Tuple[str, ...]:
        return tuple(sorted({client for client, _ in self._entries}))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[str, Statement]]:
        return iter(self._entries)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return MultiClientTrace(self._entries[item])
        return self._entries[item]
