"""The multi-session tuning service layer.

Deployment-shaped packaging of the WFIT library: a
:class:`~repro.service.engine.TuningEngine` multiplexes many concurrent
client sessions over one shared WFIT core and one shared what-if optimizer
(micro-batched single-writer ingest over the priority-classed
:class:`~repro.service.scheduler.IngestScheduler`: admission-controlled
queues with typed :class:`~repro.service.scheduler.QueueFull`
backpressure, a background task lane, and deterministic batch
formation), with per-client audit logs and
vote/materialization routing, versioned JSON checkpoint/restore
(:mod:`repro.service.snapshot`), durable ingest — a submission
write-ahead log plus atomic delta-checkpoint chains with crash recovery
(:mod:`repro.service.wal`) — and a replay CLI
(``python -m repro.service``).
"""

from .engine import ClientSession, Recommendation, SessionEvent, TuningEngine
from .scheduler import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    IngestScheduler,
    QueueFull,
)
from .snapshot import (
    SNAPSHOT_VERSION,
    BrokenChain,
    CorruptSnapshot,
    SnapshotError,
    UnsupportedVersion,
    checkpoint_engine,
    resolve_chain,
    restore_engine,
)
from .wal import (
    CorruptRecord,
    Durability,
    WalError,
    WalRecord,
    WriteAheadLog,
    read_wal,
)

__all__ = [
    "BrokenChain",
    "ClientSession",
    "CorruptRecord",
    "CorruptSnapshot",
    "DEFAULT_PRIORITY",
    "Durability",
    "IngestScheduler",
    "PRIORITIES",
    "QueueFull",
    "Recommendation",
    "SNAPSHOT_VERSION",
    "SessionEvent",
    "SnapshotError",
    "TuningEngine",
    "UnsupportedVersion",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "checkpoint_engine",
    "read_wal",
    "resolve_chain",
    "restore_engine",
]
