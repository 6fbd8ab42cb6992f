"""Write-ahead durability for served updates.

The server's in-memory journal makes rebuild swaps lossless, but a crash
still lost every update since the last snapshot.  The
:class:`WriteAheadLog` closes that hole: every acknowledged insert/delete
is appended — and, under the default ``always`` fsync policy, fsynced —
to an append-only log *before* the server acknowledges it, so recovery is

    latest loadable snapshot  +  replay of the WAL tail

(:meth:`IndexServer.from_snapshot` drives this).  Logs rotate per
generation (``wal-NNNNNN.log`` next to the ``gen-NNNNNN.npz`` snapshots):
a generation swap starts a fresh log and *carries* the updates that
arrived during the rebuild into it (re-appended with their original
sequence numbers — the new snapshot holds only the base index, so those
records must outlive the old log).  Once the new generation's snapshot
is durably on disk, logs older than the *previous* generation are
deleted; the previous generation's log is retained so a fallback to the
previous snapshot still has its full delta.  Because a carried record
exists in two logs, :meth:`WriteAheadLog.replay_dir` deduplicates by
sequence number — the first occurrence wins.

Record framing is self-checking: ``<u32 payload-length><u32 crc32>``
followed by a JSON payload ``{"seq", "op", "p"}``.  A crash mid-append
leaves a torn record at the tail; replay stops there — by the append
protocol a torn record was never acknowledged, so dropping it is exactly
right.  Torn bytes never stay in front of a later record: an append that
fails partway cuts the file back to its last whole record before it
raises, and a log opened on a torn tail (a crash mid-append) cuts that
tail off before its first append.  A bad record with *more* valid data
behind it therefore means real corruption, which replay reports via
:class:`~repro.serve.errors.WALCorruption` unless told to salvage the
readable prefix; a salvage recovery then cuts the log back to that prefix
(:meth:`WriteAheadLog.cut_corruption`) before anything is appended to it.

Fault injection: :func:`repro.faults.fault_check` guards the append path
(site ``wal.append``) — a ``torn_write`` fault writes half a record and
fails, so the append's cut-back runs deterministically
(``tests/test_recovery_machine.py``).
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.faults.registry import InjectedFault, fault_check
from repro.obs.metrics import get_registry
from repro.serve.errors import WALCorruption

__all__ = ["FSYNC_POLICIES", "WALRecord", "WriteAheadLog"]

FSYNC_POLICIES = ("always", "off")

_WAL_RE = re.compile(r"^wal-(\d+)\.log$")
_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

#: Upper bound on one record's payload — a corrupt length field must not
#: make replay allocate gigabytes.
_MAX_PAYLOAD = 1 << 20

INSERT = "insert"
DELETE = "delete"
_OPS = (INSERT, DELETE)


@dataclass(frozen=True)
class WALRecord:
    """One replayable update: global sequence number, op, and point."""

    seq: int
    op: str
    point: np.ndarray


def _encode(seq: int, op: str, point: np.ndarray) -> bytes:
    payload = json.dumps(
        {"seq": seq, "op": op, "p": [float(v) for v in point]}
    ).encode()
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _scan(path: Path, salvage: bool) -> "tuple[list[WALRecord], int, str | None]":
    """``(records, end, tail)`` of one log file: its whole records, the
    byte offset where the last of them ends, and what the bytes after it
    are: ``"torn"`` (a record cut short by the end of the file),
    ``"corrupt"`` (a salvaged bad record and all behind it) or ``None``."""
    records: list[WALRecord] = []
    if not path.exists():
        return records, 0, None
    data = path.read_bytes()
    offset = 0
    while offset < len(data):
        header = data[offset : offset + _HEADER.size]
        if len(header) < _HEADER.size:
            return records, offset, "torn"  # torn header: the crash signature
        length, crc = _HEADER.unpack(header)
        corrupt = None
        if length > _MAX_PAYLOAD:
            corrupt = f"implausible record length {length}"
        else:
            payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
            if len(payload) < length:
                return records, offset, "torn"  # torn payload: never acknowledged
            if zlib.crc32(payload) != crc:
                corrupt = "crc mismatch"
        if corrupt is None:
            try:
                entry = json.loads(payload.decode())
            except (UnicodeDecodeError, json.JSONDecodeError):
                corrupt = "undecodable payload"
        if corrupt is not None:
            # The record is physically complete but wrong — that is disk
            # corruption, not a crash artefact.
            if not salvage:
                raise WALCorruption(f"{corrupt} at byte {offset} of {path}")
            return records, offset, "corrupt"
        records.append(
            WALRecord(
                seq=int(entry["seq"]),
                op=str(entry["op"]),
                point=np.asarray(entry["p"], dtype=np.float64),
            )
        )
        offset += _HEADER.size + length
    return records, offset, None


class WriteAheadLog:
    """An append-only, generation-rotated log of acknowledged updates.

    Parameters
    ----------
    directory:
        Where ``wal-NNNNNN.log`` files live (usually the snapshot
        directory).  Created if missing.
    generation:
        The generation whose log to open; appends go to its file (in
        append mode, so reopening after recovery extends the same log).
    fsync_policy:
        ``always`` — fsync every append before returning (an
        acknowledged update survives an OS crash); ``off`` — OS-buffered
        writes only (survives process crashes, not machine crashes).
    """

    def __init__(
        self,
        directory: str | Path,
        generation: int = 0,
        fsync_policy: str = "always",
    ) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync_policy must be one of {FSYNC_POLICIES}, got {fsync_policy!r}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync_policy
        self._appends_counter = get_registry().counter("wal.appends")
        # Sequence numbers are global across every log in the directory,
        # so replay order is well defined across rotations and recoveries.
        # Reading them is no replay: a corrupt log is counted on
        # ``wal.corrupt_records`` when it is replayed, not when opened beside.
        self._seq = 0
        for gen in self.generations():
            if gen != generation:
                records, _, _ = _scan(self.path_for(gen), salvage=True)
                self._seq = max([self._seq, *(record.seq for record in records)])
        self._open(generation)

    def _open(self, generation: int) -> None:
        """Open ``generation``'s log for appending, first cutting off a
        torn tail a crash mid-append left (it was never acknowledged, and
        a record appended behind it would read as corruption)."""
        self.generation = int(generation)
        path = self.path_for(self.generation)
        records, end, tail = _scan(path, salvage=True)
        if tail == "torn":
            os.truncate(path, end)
        self._file = open(path, "ab")
        #: Where the last whole record ends: an append that fails cuts
        #: the file back to here.
        self._end = self._file.tell()
        self._depth = len(records)
        self._seq = max([self._seq, *(record.seq for record in records)])

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, generation: int) -> Path:
        return self.directory / f"wal-{generation:06d}.log"

    @property
    def path(self) -> Path:
        return self.path_for(self.generation)

    @staticmethod
    def generations_in(directory: str | Path) -> list[int]:
        """Generation ids with a log file in ``directory``, ascending."""
        directory = Path(directory)
        if not directory.exists():
            return []
        found = []
        for entry in directory.iterdir():
            match = _WAL_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def generations(self) -> list[int]:
        """Generation ids with a log file on disk, ascending."""
        return self.generations_in(self.directory)

    @property
    def depth(self) -> int:
        """Records in the current generation's log (replay backlog)."""
        return self._depth

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self,
        op: str,
        point: np.ndarray,
        seq: "int | None" = None,
        sync: bool = True,
    ) -> int:
        """Durably record one update; returns its sequence number.

        Raises before the caller acknowledges the update, so a failed or
        torn append is never visible to clients as accepted.

        ``seq`` re-records an already-sequenced update under its original
        number (a *carry* across a rotation — see the module docs; replay
        deduplicates, first occurrence wins).  ``sync=False`` skips the
        per-append fsync so a run of carries can be flushed with one
        :meth:`sync` call.
        """
        if op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {op!r}")
        if self._file.closed:
            raise ValueError("write-ahead log is closed")
        if seq is None:
            seq = self._seq + 1
        record = _encode(seq, op, np.asarray(point, dtype=np.float64))
        action = fault_check("wal.append")
        try:
            if action == "torn_write":
                # A write that fails partway: half the record reaches the OS.
                self._file.write(record[: max(len(record) // 2, 1)])
                self._file.flush()
                raise InjectedFault("torn write injected at wal.append")
            self._file.write(record)
            self._file.flush()
            if sync and self.fsync_policy == "always":
                os.fsync(self._file.fileno())
        except (OSError, InjectedFault):
            # Never leave torn bytes for the next append to land behind.
            self._file.truncate(self._end)
            raise
        self._end += len(record)
        self._seq = max(self._seq, seq)
        self._depth += 1
        self._appends_counter.inc()
        return seq

    def sync(self) -> None:
        """Flush and fsync whatever has been appended so far."""
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())

    # ------------------------------------------------------------------
    # Rotation and pruning
    # ------------------------------------------------------------------
    def rotate(self, generation: int) -> None:
        """Close the current log and start ``generation``'s (fresh deltas
        against the new generation's base)."""
        self.sync()
        self._file.close()
        self._open(generation)

    def remove_through(self, generation: int) -> list[Path]:
        """Delete logs for generations **before** ``generation``.

        Call only once every snapshot from ``generation`` on is durably
        saved.  The server compacts with ``generation = current - 1`` so
        the previous generation's log survives: a fallback to the
        previous snapshot (after quarantining a corrupt newest one)
        still has the full delta to replay.
        """
        removed = []
        for gen in self.generations():
            if gen < generation and gen != self.generation:
                path = self.path_for(gen)
                path.unlink()
                removed.append(path)
        return removed

    def close(self) -> None:
        if not self._file.closed:
            self.sync()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    @classmethod
    def replay_file(cls, path: str | Path, salvage: bool = False) -> list[WALRecord]:
        """Decode one log file's records in append order.

        A torn/corrupt record at the physical tail is dropped silently
        (it was never acknowledged).  A bad record *followed by more
        data* is real corruption: raises :class:`WALCorruption`, or —
        with ``salvage=True`` — keeps the valid prefix and counts the
        loss on the ``wal.corrupt_records`` metric.
        """
        records, _, tail = _scan(Path(path), salvage)
        if tail == "corrupt":
            get_registry().counter("wal.corrupt_records").inc()
        return records

    @classmethod
    def cut_corruption(cls, directory: str | Path, from_generation: int) -> None:
        """Cut each log from ``from_generation`` on back to the prefix a
        salvage replay keeps, so no record appended later sits behind its
        corruption (strict replay would refuse it, salvage would drop it)."""
        for gen in cls.generations_in(directory):
            if gen >= from_generation:
                path = Path(directory) / f"wal-{gen:06d}.log"
                _, end, tail = _scan(path, salvage=True)
                if tail == "corrupt":
                    os.truncate(path, end)

    @classmethod
    def replay_dir(
        cls, directory: str | Path, from_generation: int = 0, salvage: bool = False
    ) -> list[WALRecord]:
        """All records from generation ``from_generation`` on, in order
        (ascending generation, then append order within each log).

        Records carried across a rotation exist in two logs under the
        same sequence number; only the first occurrence is returned.
        """
        directory = Path(directory)
        records: list[WALRecord] = []
        seen: set[int] = set()
        for gen in cls.generations_in(directory):
            if gen < from_generation:
                continue
            for record in cls.replay_file(
                directory / f"wal-{gen:06d}.log", salvage=salvage
            ):
                if record.seq in seen:
                    continue
                seen.add(record.seq)
                records.append(record)
        return records
