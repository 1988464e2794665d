# reprolint: zone=deterministic
"""Checkpoint/restore for the tuning engine: versioned JSON documents.

The design goal (motivated by the consistent-snapshot literature for
main-memory systems) is that a checkpoint is taken *between* micro-batches
— never inside one — and captures everything needed to continue
step-identically:

* the WFIT core (partition, per-part work-function values, candidate
  statistics, universe U, partitioner RNG state) via
  :meth:`repro.core.wfit.WFIT.export_state`;
* the what-if optimizer's universe bit-assignment order
  (:meth:`repro.core.bitset.IndexUniverse.export_order`), so restored
  masks and cache layouts reproduce the original run exactly;
* the engine's materialized set, totWork accounting, and per-session
  audit logs;
* the *pending queue* — statements submitted but not yet pumped at the
  snapshot point (version 2). They are serialized as SQL and re-submitted
  on restore, so a crash between submit and pump no longer loses work;
* the WAL high-water mark and delta chaining (version 3): a document
  records the highest WAL sequence number it covers (``wal_seq``), and a
  **delta** document re-serializes only the parts whose work-function
  state changed since a **base** full snapshot, replacing unchanged parts
  with ``{"indices": ..., "same_as_base": true}`` and naming the base by
  ``base_id``. :func:`resolve_chain` overlays a delta back onto its base;
  :func:`restore_engine` only accepts resolved (full-equivalent)
  documents. Change detection uses the per-part ``w_version`` mutation
  counter (see :class:`repro.core.wfa.WFA`) plus the tuner's
  ``repartition_count`` as an epoch guard — a repartition rebuilds every
  instance, so counters from different epochs are never compared.

Costs themselves are *not* serialized: they are deterministic functions of
``(statement, configuration)`` under the analytical cost model, so a fresh
optimizer over equivalent statistics re-derives them on demand — restore
needs statistics, not gigabytes of memoized plans.

Documents are plain JSON (floats round-trip exactly through Python's
``json``) with a top-level ``version``; :func:`restore_engine` rejects
unknown versions up front with a typed :class:`SnapshotError` (still a
``ValueError``, so pre-existing callers keep working).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.wfit import WFIT
from ..db.index import Index
from ..optimizer.whatif import WhatIfOptimizer

__all__ = [
    "SNAPSHOT_VERSION",
    "BrokenChain",
    "CorruptSnapshot",
    "SnapshotError",
    "UnsupportedVersion",
    "checkpoint_engine",
    "resolve_chain",
    "restore_engine",
]

#: Format version of engine checkpoint documents. Version 2 added the
#: ``"pending"`` list (submitted-but-unpumped statements); version 3 added
#: durability metadata (``kind``/``snapshot_id``/``base_id``/``wal_seq``)
#: and delta documents. Older documents still restore.
SNAPSHOT_VERSION = 3

#: Versions :func:`restore_engine` accepts.
_SUPPORTED_VERSIONS = (1, 2, 3)


class SnapshotError(ValueError):
    """Base class for checkpoint load/restore failures.

    Subclasses ``ValueError`` so callers predating the hierarchy (which
    caught ``ValueError`` around :func:`restore_engine`) keep working.
    """


class UnsupportedVersion(SnapshotError):
    """The document's ``version`` is not one this build can restore."""


class CorruptSnapshot(SnapshotError):
    """The document is unreadable (bad JSON / not an object)."""


class BrokenChain(SnapshotError):
    """A delta document cannot be resolved against its base snapshot."""


def checkpoint_engine(
    engine,
    extra: Optional[Dict[str, object]] = None,
    *,
    snapshot_id: Optional[int] = None,
    base: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Serialize ``engine`` between micro-batches.

    Prefer ``TuningEngine.checkpoint()``, which manages the writer lock
    and (by default) drains first. Statements still queued at the
    snapshot point — submitted concurrently with a draining checkpoint,
    or deliberately left queued by ``checkpoint(drain=False)`` — are
    serialized under ``"pending"`` in submission order and re-submitted
    by :func:`restore_engine`, so the restored engine analyzes exactly
    the statements the original would have. Each session's serialized
    ``submitted`` counter equals its ``processed`` count; replaying the
    pending list restores the original submission counts.

    With ``base`` (a version-3 *full* document), the result is converted
    to a delta when at least one part's work-function state is unchanged
    since the base; otherwise (including whenever the partition changed)
    the full document is returned as-is.
    """
    from ..query.parser import to_sql

    with engine._pump_lock:
        # Client registration and the queue mutate under the ingest lock
        # (a concurrent first-ever submit inserts into the table);
        # snapshot both before iterating. Per-client processed counts and
        # events only mutate under the pump lock we already hold. The WAL
        # checkpoint mark is captured in the same region as the queue: a
        # record is appended and its statement enqueued under one ingest-
        # lock acquisition, so ``wal_seq`` covers exactly the submissions
        # the ``pending`` list (plus processed history) accounts for —
        # and the mark's byte offset lets the later ``reset()`` rotate
        # out only this prefix, so a submit landing between this capture
        # and the rotation (its record has seq > wal_seq and sits past
        # the marked offset) survives in the log instead of being
        # truncated away unreplayed.
        with engine._ingest_lock:
            clients = sorted(engine._clients.items())
            pending = []
            for entry in engine._scheduler.entries():
                item: Dict[str, object] = {
                    "client_id": entry.client_id,
                    "sql": to_sql(entry.statement),
                }
                if entry.priority != "normal":
                    item["priority"] = entry.priority
                pending.append(item)
            wal = engine._wal
            wal_seq = wal.checkpoint_mark() if wal is not None else 0
        document: Dict[str, object] = {
            "version": SNAPSHOT_VERSION,
            "kind": "full",
            "snapshot_id": snapshot_id,
            "base_id": None,
            "wal_seq": wal_seq,
            "batch_size": engine.batch_size,
            "background_batch_size": engine.background_batch_size,
            "background_pacing": engine.background_pacing,
            "tuner": engine.tuner.export_state(),
            "universe_order": [
                ix.to_payload()
                for ix in engine.optimizer.mask_universe.export_order()
            ],
            "materialized": [
                ix.to_payload() for ix in sorted(engine.materialized)
            ],
            "accounting": {
                "total_work": engine.total_work,
                "config": [
                    ix.to_payload() for ix in sorted(engine._accounting_config)
                ],
                "statements_processed": engine.statements_processed,
                "batches_processed": engine.batches_processed,
                # The realized (actual-adoption) totWork series. The
                # charged prefix and the one statement whose realized
                # cost is still open (deferred finalization — see
                # TuningEngine.realized_total_work) are serialized
                # separately so the restored engine finalizes it under
                # whatever the materialized set is *then*, exactly as the
                # uninterrupted run would have.
                "realized_work": engine._realized_work,
                "pending_realized_transition": engine._pending_transition,
                "pending_realized": (
                    None
                    if engine._pending_realized is None
                    else {
                        "client_id": engine._pending_realized[0],
                        "sql": to_sql(engine._pending_realized[1]),
                    }
                ),
                "adoption_changes": engine._adoptions,
                "last_adoption_position": engine._last_adoption_position,
            },
            "sessions": [
                {
                    "client_id": state.client_id,
                    "priority": state.priority,
                    "submitted": state.processed,
                    "processed": state.processed,
                    "events": [
                        [event.kind, event.detail, event.position]
                        for event in state.events
                    ],
                    "recommended_work": state.recommended_work,
                    "realized_work": state.realized_work,
                }
                for _, state in clients
            ],
            "pending": pending,
        }
    if base is not None:
        delta = _delta_against(document, base)
        if delta is not None:
            document = delta
    if extra is not None:
        document["extra"] = extra
    return document


def _state_unchanged(
    base_state: Dict[str, object], state: Dict[str, object]
) -> bool:
    """Whether a part's work-function state is identical to the base's.

    Equal ``w_version`` counters prove no kernel mutation happened since
    the base (same partition epoch, same instance — the caller checked
    ``repartition_count``), so the expensive comparison is skipped. A
    differing counter is only *suspicion*: a feedback whose votes did not
    move this part bumps the counter without changing any value, so the
    exact per-field comparison (w vector, recommendation mask, statement
    count) decides.
    """
    if base_state.get("w_version") == state.get("w_version"):
        return True
    keys = (set(base_state) | set(state)) - {"w_version"}
    return all(base_state.get(key) == state.get(key) for key in keys)


def _delta_against(
    document: Dict[str, object], base: Dict[str, object]
) -> Optional[Dict[str, object]]:
    """``document`` as a delta chained to ``base``, or None when a delta
    is impossible (pre-v3 base, repartition since the base, no shared
    parts) — the caller then publishes the full document."""
    if base.get("version") != SNAPSHOT_VERSION or base.get("kind") != "full":
        return None
    if base.get("snapshot_id") is None:
        return None
    base_tuner = base["tuner"]
    tuner = document["tuner"]
    # A repartition rebuilds every WFA instance, resetting its w_version
    # counter: counters are only comparable within one partition epoch.
    if base_tuner.get("repartition_count") != tuner.get("repartition_count"):
        return None
    base_parts = base_tuner["parts"]
    parts = tuner["parts"]
    if len(base_parts) != len(parts):
        return None
    shared = 0
    delta_parts = []
    for base_part, part in zip(base_parts, parts):
        if base_part["indices"] == part["indices"] and _state_unchanged(
            base_part["state"], part["state"]
        ):
            delta_parts.append({"indices": part["indices"], "same_as_base": True})
            shared += 1
        else:
            delta_parts.append(part)
    if shared == 0:
        return None
    delta = dict(document)
    delta["kind"] = "delta"
    delta["base_id"] = base["snapshot_id"]
    delta_tuner = dict(tuner)
    delta_tuner["parts"] = delta_parts
    delta["tuner"] = delta_tuner
    return delta


def resolve_chain(
    document: Dict[str, object], base: Dict[str, object]
) -> Dict[str, object]:
    """Overlay a delta ``document`` onto its ``base`` full snapshot.

    Full documents pass through untouched. Raises :class:`BrokenChain`
    when the chain does not validate: wrong base id, a base that is not a
    full snapshot, or per-part index sets that diverge from what the
    delta recorded.
    """
    if document.get("kind") != "delta":
        return document
    if base.get("kind") != "full":
        raise BrokenChain(
            f"delta snapshot {document.get('snapshot_id')!r} chained to "
            f"snapshot {base.get('snapshot_id')!r}, which is not a full snapshot"
        )
    if base.get("snapshot_id") is None or document.get("base_id") != base.get("snapshot_id"):
        raise BrokenChain(
            f"delta snapshot {document.get('snapshot_id')!r} names base "
            f"{document.get('base_id')!r} but was resolved against "
            f"{base.get('snapshot_id')!r}"
        )
    base_parts = base["tuner"]["parts"]
    parts = document["tuner"]["parts"]
    if len(parts) != len(base_parts):
        raise BrokenChain(
            f"delta snapshot {document.get('snapshot_id')!r} has "
            f"{len(parts)} parts; its base has {len(base_parts)}"
        )
    resolved_parts = []
    for position, part in enumerate(parts):
        if part.get("same_as_base"):
            base_part = base_parts[position]
            if base_part["indices"] != part["indices"]:
                raise BrokenChain(
                    f"delta snapshot {document.get('snapshot_id')!r} part "
                    f"{position} indices diverge from its base"
                )
            resolved_parts.append(base_part)
        else:
            resolved_parts.append(part)
    resolved = dict(document)
    resolved_tuner = dict(document["tuner"])
    resolved_tuner["parts"] = resolved_parts
    resolved["tuner"] = resolved_tuner
    resolved["kind"] = "full"
    return resolved


def restore_engine(
    document: Dict[str, object],
    optimizer: WhatIfOptimizer,
    transitions,
):
    """Rebuild a ``TuningEngine`` from a :func:`checkpoint_engine` document.

    ``optimizer`` must be freshly built over statistics equivalent to the
    original's; its mask universe is seeded with the checkpointed bit
    order before any statement flows through it. Delta documents must be
    resolved first (:func:`resolve_chain`); passing one raises
    :class:`BrokenChain`.
    """
    from .engine import SessionEvent, TuningEngine

    version = document.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise UnsupportedVersion(
            f"unsupported engine checkpoint version {version!r} "
            f"(supported: {_SUPPORTED_VERSIONS})"
        )
    if document.get("kind") == "delta":
        raise BrokenChain(
            "delta checkpoint cannot restore on its own; overlay it onto "
            "its base snapshot with resolve_chain() first"
        )
    optimizer.mask_universe.extend_order(
        Index.from_payload(payload) for payload in document["universe_order"]
    )

    # Construct over an empty materialized set so the constructor's interim
    # tuner is trivial (zero parts) — it is replaced by the restored WFIT
    # on the next line, and the materialized set is reinstated from the
    # document below.
    engine = TuningEngine(
        optimizer,
        transitions,
        batch_size=int(document["batch_size"]),
        background_batch_size=int(document.get("background_batch_size", 1)),
        background_pacing=float(document.get("background_pacing", 0.008)),
    )
    engine._tuner = WFIT.restore_state(
        optimizer, transitions, document["tuner"]
    )
    engine._materialized = {
        Index.from_payload(p) for p in document["materialized"]
    }
    accounting = document["accounting"]
    engine._total_work = float(accounting["total_work"])
    engine._accounting_config = frozenset(
        Index.from_payload(p) for p in accounting["config"]
    )
    engine._statements_processed = int(accounting["statements_processed"])
    engine._batches_processed = int(accounting["batches_processed"])
    # Realized (actual-adoption) totWork. Documents written before the
    # series existed assumed immediate adoption throughout, under which
    # the realized and recommended series coincide — seed from the
    # recommended total.
    engine._realized_work = float(
        accounting.get("realized_work", accounting["total_work"])
    )
    engine._pending_transition = float(
        accounting.get("pending_realized_transition", 0.0)
    )
    pending_realized = accounting.get("pending_realized")
    if pending_realized is not None:
        from ..query.parser import parse_statement

        engine._pending_realized = (
            str(pending_realized["client_id"]),
            parse_statement(str(pending_realized["sql"])),
        )
    engine._adoptions = int(accounting.get("adoption_changes", 0))
    last_adoption = accounting.get("last_adoption_position")
    engine._last_adoption_position = (
        None if last_adoption is None else int(last_adoption)
    )
    for item in document["sessions"]:
        state = engine._client(str(item["client_id"]))
        if item.get("priority") is not None:
            state.priority = str(item["priority"])
        state.submitted = int(item["submitted"])
        state.processed = int(item["processed"])
        state.events = [
            SessionEvent(str(kind), str(detail), int(position))
            for kind, detail, position in item["events"]
        ]
        state.recommended_work = float(item.get("recommended_work", 0.0))
        state.realized_work = float(item.get("realized_work", 0.0))
    # Replay the pending queue (version ≥ 2; absent in version-1
    # documents) in submission order: the statements re-enter the queue
    # un-analyzed — priority classes included — exactly as they stood at
    # the snapshot point, and the next pump processes them. submit()
    # re-increments the per-session submitted counters past the
    # serialized processed counts. Priorities are passed explicitly (an
    # absent key means the entry was queued as "normal"), never left to
    # the session default, which the lines above may have restored to a
    # different class than the entry was admitted under.
    for item in document.get("pending", ()):
        engine.submit(
            str(item["client_id"]),
            str(item["sql"]),
            priority=str(item.get("priority", "normal")),
        )
    return engine
