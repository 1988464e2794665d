"""In-memory crash-consistency model of :class:`repro.ioutil.FileIO`.

The durability layer funnels every filesystem touch through the
``FileIO`` surface; :class:`FaultyIO` mirrors that surface over plain
dictionaries while tracking, per file, both the *live* content (what the
OS page cache would hold) and the *durable* content (what an fsync has
actually pinned to stable storage). Directory entries get the same
treatment: a create or rename is volatile until the parent directory is
fsynced, exactly the POSIX contract ``atomic_write_json`` is written
against.

Faults are scheduled as "crash at the N-th occurrence of op X" (or of
any mutating op, for random kill points). When a scheduled point is hit
the model first simulates power loss — every file reverts to its durable
bytes, every non-durable name vanishes — and then raises
:class:`SimulatedCrash` into the caller. Whatever the test recovers from
afterwards is, by construction, only what a real crash could have left
behind.

Extra corruption knobs (``flip_byte``, ``truncate_durable``,
``drop_fsyncs``) model media corruption, torn sectors, and lying disks.
Two fsync knobs drive concurrency tests: ``block_fsync`` holds one fsync
until the test releases it, and ``fail_fsync`` makes one fsync raise
without pinning anything (an EIO from the disk).
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Union

__all__ = ["FaultyIO", "FsyncGate", "SimulatedCrash", "MUTATING_OPS"]

#: Ops that change on-disk state; ``schedule_crash(op="*")`` counts these.
MUTATING_OPS = ("write", "fsync", "truncate", "replace", "fsync_dir")


class SimulatedCrash(RuntimeError):
    """Raised at a scheduled fault point.

    By the time this propagates, the :class:`FaultyIO` has already
    discarded all volatile state — the test should abandon the crashed
    engine and run recovery against the same IO instance.
    """


class FsyncGate:
    """One blocked fsync (see :meth:`FaultyIO.block_fsync`).

    ``entered`` is set once the fsync has started; it then waits for
    ``release``, at most ``timeout`` seconds, and goes on as a plain fsync
    (scheduled crashes included), or raises ``error`` and pins nothing
    when that was set before the release.
    """

    def __init__(self, timeout: float = 10.0) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        self.timeout = timeout
        self.error: Optional[BaseException] = None


class _File:
    __slots__ = ("live", "durable")

    def __init__(self, live: bytes = b"", durable: bytes = b"") -> None:
        self.live = bytearray(live)
        self.durable = bytes(durable)


class _Handle:
    __slots__ = ("path", "file", "closed")

    def __init__(self, path: str, file: _File) -> None:
        self.path = path
        self.file = file
        self.closed = False


class FaultyIO:
    """Drop-in ``FileIO`` substitute with scheduled crashes.

    * ``self._live``    — name -> file as the running process sees it
    * ``self._durable`` — name -> file as stable storage sees it (the
      mapping is what survives a crash; each file's ``durable`` bytes are
      its surviving content)
    """

    def __init__(self) -> None:
        self._live: Dict[str, _File] = {}
        self._durable: Dict[str, _File] = {}
        self._dirs: set = set()
        self.drop_fsyncs = False
        self.crashes = 0
        self.op_counts: Dict[str, int] = {}
        self._schedule: List[Dict[str, object]] = []
        # [remaining fsyncs, gate or error] entries; guarded by _fault_lock
        # because concurrent callers may fsync at once.
        self._fsync_faults: List[list] = []
        self._fault_lock = threading.Lock()

    # -- fault scheduling ------------------------------------------------------

    def schedule_crash(self, op: str = "*", at: int = 1, phase: str = "before") -> None:
        """Crash at the ``at``-th occurrence (1-based, counted from now) of
        ``op`` — ``"*"`` matches any op in :data:`MUTATING_OPS`. ``phase``
        is ``"before"`` (op never happens), ``"after"`` (op fully applied,
        then power loss), or ``"mid"`` (``write`` only: half the bytes
        land *and* reach the platter — the torn-record case)."""
        if phase not in ("before", "after", "mid"):
            raise ValueError(f"unknown phase {phase!r}")
        self._schedule.append({"op": op, "remaining": int(at), "phase": phase})

    def _tick(self, op: str) -> Optional[str]:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        for entry in self._schedule:
            remaining = entry["remaining"]
            if not isinstance(remaining, int) or remaining <= 0:
                continue
            target = entry["op"]
            if target == "*":
                if op not in MUTATING_OPS:
                    continue
            elif target != op:
                continue
            entry["remaining"] = remaining - 1
            if remaining - 1 == 0:
                return str(entry["phase"])
        return None

    def block_fsync(self, at: int = 1, timeout: float = 10.0) -> FsyncGate:
        """Block the ``at``-th fsync from now until the returned gate's
        ``release`` is set. The bytes it pins are those written before it
        started."""
        gate = FsyncGate(timeout)
        with self._fault_lock:
            self._fsync_faults.append([int(at), gate])
        return gate

    def fail_fsync(self, error: BaseException, at: int = 1) -> None:
        """Make the ``at``-th fsync from now raise ``error`` and pin
        nothing; later fsyncs work again."""
        with self._fault_lock:
            self._fsync_faults.append([int(at), error])

    def _next_fsync_fault(self) -> Union[FsyncGate, BaseException, None]:
        fired: Union[FsyncGate, BaseException, None] = None
        with self._fault_lock:
            for entry in self._fsync_faults:
                entry[0] -= 1
                if entry[0] == 0:
                    fired = entry[1]
            self._fsync_faults = [e for e in self._fsync_faults if e[0] > 0]
        return fired

    def crash(self) -> None:
        """Simulate power loss: only durable names and bytes survive."""
        survivors = {
            path: _File(f.durable, f.durable) for path, f in self._durable.items()
        }
        self._live = dict(survivors)
        self._durable = dict(survivors)
        self.crashes += 1

    def _crash_now(self, why: str) -> None:
        self.crash()
        raise SimulatedCrash(why)

    # -- corruption knobs ------------------------------------------------------

    def flip_byte(self, path, offset: int, xor: int = 0xFF) -> None:
        """Corrupt one byte of ``path`` in both live and durable content."""
        f = self._live[os.fspath(path)]
        f.live[offset] ^= xor
        if offset < len(f.durable):
            durable = bytearray(f.durable)
            durable[offset] ^= xor
            f.durable = bytes(durable)

    def truncate_durable(self, path, size: int) -> None:
        """Tear ``path`` down to ``size`` bytes, live and durable alike."""
        f = self._live[os.fspath(path)]
        del f.live[size:]
        f.durable = f.durable[:size]

    # -- handles ---------------------------------------------------------------

    def open_append(self, path) -> _Handle:
        p = os.fspath(path)
        f = self._live.get(p)
        if f is None:
            f = self._live[p] = _File()
        return _Handle(p, f)

    def open_write(self, path) -> _Handle:
        p = os.fspath(path)
        f = _File()
        self._live[p] = f
        return _Handle(p, f)

    def write(self, handle: _Handle, data: bytes) -> int:
        phase = self._tick("write")
        if phase == "before":
            self._crash_now("crash before write")
        if phase == "mid":
            # The unlucky case: the kernel flushed the half-written page on
            # its own before power loss — a torn record reaches the platter.
            handle.file.live.extend(bytes(data[: max(1, len(data) // 2)]))
            handle.file.durable = bytes(handle.file.live)
            self._crash_now("crash mid-write (torn)")
        handle.file.live.extend(data)
        if phase == "after":
            self._crash_now("crash after write")
        return len(data)

    def flush(self, handle: _Handle) -> None:
        pass  # live bytes already model the page cache

    def fsync(self, handle: _Handle) -> None:
        pinned = bytes(handle.file.live)
        fault = self._next_fsync_fault()
        if isinstance(fault, FsyncGate):
            fault.entered.set()
            if not fault.release.wait(fault.timeout):
                raise RuntimeError("a blocked fsync was never released")
            if fault.error is not None:
                raise fault.error
        elif fault is not None:
            raise fault
        phase = self._tick("fsync")
        if phase == "before":
            self._crash_now("crash before fsync")
        if not self.drop_fsyncs:
            handle.file.durable = pinned
        if phase == "after":
            self._crash_now("crash after fsync")

    def truncate(self, handle: _Handle, size: int) -> None:
        phase = self._tick("truncate")
        if phase == "before":
            self._crash_now("crash before truncate")
        del handle.file.live[size:]
        if phase == "after":
            self._crash_now("crash after truncate")

    def close(self, handle: _Handle) -> None:
        handle.closed = True

    # -- namespace -------------------------------------------------------------

    def replace(self, src, dst) -> None:
        phase = self._tick("replace")
        if phase == "before":
            self._crash_now("crash before rename")
        s, d = os.fspath(src), os.fspath(dst)
        if s not in self._live:
            raise FileNotFoundError(s)
        self._live[d] = self._live.pop(s)
        # The rename is volatile until the parent directory is fsynced.
        if phase == "after":
            self._crash_now("crash after rename (before dir fsync)")

    def fsync_dir(self, path) -> None:
        phase = self._tick("fsync_dir")
        if phase == "before":
            self._crash_now("crash before dir fsync")
        if not self.drop_fsyncs:
            parent = os.fspath(path)
            kept = {
                p: f
                for p, f in self._durable.items()
                if os.path.dirname(p) != parent
            }
            for p, f in self._live.items():
                if os.path.dirname(p) == parent:
                    kept[p] = f
            self._durable = kept
        if phase == "after":
            self._crash_now("crash after dir fsync")

    def makedirs(self, path) -> None:
        self._dirs.add(os.fspath(path))

    def remove(self, path) -> None:
        p = os.fspath(path)
        if p not in self._live:
            raise FileNotFoundError(p)
        del self._live[p]

    # -- reads -----------------------------------------------------------------

    def exists(self, path) -> bool:
        p = os.fspath(path)
        return p in self._live or p in self._dirs

    def read_bytes(self, path) -> bytes:
        p = os.fspath(path)
        if p not in self._live:
            raise FileNotFoundError(p)
        return bytes(self._live[p].live)

    def file_size(self, path) -> int:
        p = os.fspath(path)
        if p not in self._live:
            raise FileNotFoundError(p)
        return len(self._live[p].live)

    def listdir(self, path) -> List[str]:
        parent = os.fspath(path)
        return sorted(
            os.path.basename(p)
            for p in self._live
            if os.path.dirname(p) == parent
        )

    # -- inspection helpers ----------------------------------------------------

    def durable_names(self) -> List[str]:
        return sorted(self._durable)

    def durable_bytes(self, path) -> bytes:
        """What a crash now would leave of ``path`` (b"" when its name is
        not durable)."""
        f = self._durable.get(os.fspath(path))
        return b"" if f is None else f.durable

    def live_names(self) -> List[str]:
        return sorted(self._live)
