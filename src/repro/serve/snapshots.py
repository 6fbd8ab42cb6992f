"""On-disk snapshots of served indices, numbered by generation.

A serving deployment reopens indices far more often than it rebuilds them
(the ELSI premise), so the server persists each generation through
:mod:`repro.storage.persist` and reloads the latest on restart.  Writes
are atomic — the ``.npz`` is written to a temporary name in the same
directory and renamed into place — so a crash mid-save can never leave a
half-written snapshot as the latest generation.

The manager is also the recovery loader's first line of defence:

- orphaned ``.tmp`` files from a crash mid-save are swept on startup;
- a snapshot that fails to load (torn, truncated, or otherwise corrupt)
  is *quarantined* — renamed to ``gen-NNNNNN.npz.corrupt`` — and
  :meth:`load` falls back to the previous generation instead of raising,
  so one bad file never takes recovery down.  The fallback is lossless
  as long as the fallback generation's WAL is still on disk — which WAL
  compaction guarantees one generation deep by always retaining the
  previous generation's log (see :mod:`repro.serve.wal`); a fallback
  past that horizon makes ``IndexServer.from_snapshot`` come up
  ``degraded`` instead of silently missing deltas.

Retention mirrors the WAL's: once a rebuild's snapshot is saved, the
server calls :meth:`remove_through` (and the WAL's) with the generation
of the newest older snapshot, so the directory keeps the current and the
previous snapshot — the previous one is the fallback for a current one
that turns out unloadable — and every log from the previous one on.

Fault injection: the write path passes the ``snapshot.write`` site, so
chaos tests can make saves fail or tear deterministically.
"""

from __future__ import annotations

import os
import re
import zipfile
import zlib
from pathlib import Path

from repro.faults.registry import InjectedFault, fault_check
from repro.obs.metrics import get_registry
from repro.storage.persist import load_index, save_index

__all__ = ["SnapshotManager"]

_SNAPSHOT_RE = re.compile(r"^gen-(\d+)\.npz$")
_TMP_RE = re.compile(r"^\.gen-(\d+)\.tmp\.npz$")

#: Exceptions that mean "this snapshot file is unusable" (as opposed to a
#: programming error): truncated archives, bad zip members, damage inside
#: a deflate stream, garbage meta.  ``persist.OldFormatError`` is not one
#: of them: a file in a retired format is intact, so it propagates.
_LOAD_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    EOFError,
    zipfile.BadZipFile,
    zlib.error,
)


class SnapshotManager:
    """A directory of ``gen-NNNNNN.npz`` index snapshots."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.cleanup_tmp()

    # ------------------------------------------------------------------
    def path_for(self, generation: int) -> Path:
        return self.directory / f"gen-{generation:06d}.npz"

    def generations(self) -> list[int]:
        """Snapshot generation ids present on disk, ascending."""
        found = []
        for entry in self.directory.iterdir():
            match = _SNAPSHOT_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def cleanup_tmp(self) -> list[Path]:
        """Remove orphaned ``.tmp`` files left by a crash mid-save."""
        removed = []
        for entry in self.directory.iterdir():
            if _TMP_RE.match(entry.name):
                entry.unlink()
                removed.append(entry)
        return removed

    # ------------------------------------------------------------------
    def save(self, index, generation: int) -> Path:
        """Atomically persist ``index`` as snapshot ``generation``."""
        final = self.path_for(generation)
        tmp = self.directory / f".gen-{generation:06d}.tmp.npz"
        action = fault_check("snapshot.write")
        save_index(index, tmp)
        if action == "torn_write":
            # Simulated crash between the data write and its fsync: the
            # rename lands but the contents are truncated mid-file.
            with open(tmp, "r+b") as fh:
                fh.truncate(max(tmp.stat().st_size // 2, 1))
            os.replace(tmp, final)
            raise InjectedFault("torn write injected at snapshot.write")
        os.replace(tmp, final)
        return final

    def quarantine(self, generation: int) -> Path:
        """Move a bad snapshot aside as ``gen-NNNNNN.npz.corrupt``."""
        path = self.path_for(generation)
        target = path.with_suffix(path.suffix + ".corrupt")
        os.replace(path, target)
        get_registry().counter("snapshots.quarantined").inc()
        return target

    def load(self, generation: int | None = None):
        """Load snapshot ``generation`` (default: latest *loadable*).

        With no explicit generation, corrupt snapshots are quarantined
        and the loader falls back to the next-older generation; raises
        ``FileNotFoundError`` only when no snapshot loads at all.  A
        snapshot in a retired format is not corrupt: its
        ``OldFormatError`` propagates and the file stays where it is.  An
        explicit ``generation`` is strict: load errors propagate.

        Returns ``(index, generation)``.
        """
        if generation is not None:
            path = self.path_for(generation)
            if not path.exists():
                raise FileNotFoundError(
                    f"no snapshot for generation {generation}: {path}"
                )
            return load_index(path), generation
        last_error: Exception | None = None
        for candidate in reversed(self.generations()):
            try:
                return load_index(self.path_for(candidate)), candidate
            except _LOAD_ERRORS as exc:
                last_error = exc
                self.quarantine(candidate)
        if last_error is not None:
            raise FileNotFoundError(
                f"no loadable snapshots in {self.directory} "
                f"(last failure: {last_error})"
            )
        raise FileNotFoundError(f"no snapshots in {self.directory}")

    def remove_through(self, generation: int) -> list[Path]:
        """Delete snapshots for generations **before** ``generation``;
        returns the removed paths.

        Call only once a snapshot newer than ``generation`` is saved.  The
        server passes the previous snapshot's generation, as it does to
        :meth:`repro.serve.wal.WriteAheadLog.remove_through`, so a
        fallback to the previous snapshot still finds it and its logs.
        """
        removed = []
        for gen in self.generations():
            if gen < generation:
                path = self.path_for(gen)
                path.unlink()
                removed.append(path)
        return removed
