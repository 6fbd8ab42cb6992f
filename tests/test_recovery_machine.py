"""The durability contract as one state machine: no acknowledged update is
lost across insert, delete, rebuild swap, snapshot or WAL recovery.

Hypothesis drives one :class:`IndexServer` — snapshots and a write-ahead
log over a small ZM index (OSM1, n = 400, 40 epochs) — through freely
interleaved rules: acknowledged inserts and deletes (fresh points,
duplicates, absent points), rebuilds with injected worker errors up to one
past the retry budget, a rebuild whose snapshot writes all tear, a torn WAL
append after which the server dies or keeps serving, and crashes in three
kill modes: between updates, after a durable append that was never
acknowledged, and mid-append.

The model is the multiset of the base points plus every acknowledged
update (and the durable unacknowledged one, which recovery must keep).
After every step the server's logical set must equal the model, its
point, window and kNN answers through ``submit`` / ``wait`` must equal a
brute-force scan of the model (ZM answers exactly), and its health must be
the one the steps so far imply.

A crash copies the state directory as it is on disk, closes the old
server and recovers the copy with ``from_snapshot(wal=True)``; the old
server is closed only after the copy, so whatever it never flushed is
lost, as it would be if the process died.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.serve.server as server_module
from repro.core import ELSIConfig, ELSIModelBuilder
from repro.data import load_dataset
from repro.faults.registry import InjectedFault, get_fault_registry
from repro.indices.zm import ZMIndex
from repro.serve import (
    DEGRADED,
    HEALTHY,
    READ_ONLY,
    IndexServer,
    RebuildFailed,
    ServeConfig,
    ServerReadOnly,
)
from repro.serve.requests import KNN, WINDOW, Request
from repro.serve.server import MAX_RETRIES
from repro.spatial.rect import Rect
from tests.brute import assert_knn, assert_windows, point_truth

N, EPOCHS, SEED = 400, 40, 0
CONFIG = ELSIConfig(train_epochs=EPOCHS, seed=SEED)
BUILDER = ELSIModelBuilder(CONFIG, method="SP")

#: Fresh points sit on the centres of a GRID x GRID lattice, so the
#: machine inserts the same point twice now and then; absent points sit a
#: quarter cell off the centres, where nothing is ever inserted.
GRID = 16
CELL = st.integers(0, GRID - 1)
#: Picks one of the model's points (modulo its size).
PICK = st.integers(0, 10**6)

WINDOWS = [Rect((0.0, 0.0), (1.0, 1.0)), Rect((0.1, 0.2), (0.45, 0.5)),
           Rect((0.5, 0.5), (0.9, 0.95))]
KNN_QUERIES = np.array([[0.5, 0.5], [0.05, 0.9], [0.71875, 0.28125]])
K = 6


def _options() -> dict:
    return dict(
        config=ServeConfig(auto_rebuild=False),
        elsi_config=CONFIG,
        index_factory=lambda: ZMIndex(builder=BUILDER),
    )


def _fresh(x: int, y: int) -> np.ndarray:
    return np.array([(x + 0.5) / GRID, (y + 0.5) / GRID])


def _absent(x: int, y: int) -> np.ndarray:
    return np.array([(x + 0.25) / GRID, (y + 0.25) / GRID])


class ProcessDied(BaseException):
    """The process died: nothing after this point runs, ``except
    Exception`` clean-up included."""


class _DiesMidWrite:
    """A log file whose process dies mid-append: half the record reaches
    the OS, then the process is gone."""

    def __init__(self, file) -> None:
        self._file = file

    def write(self, data: bytes) -> int:
        self._file.write(data[: len(data) // 2])
        self._file.flush()
        raise ProcessDied

    def __getattr__(self, name):
        return getattr(self._file, name)


class RecoveryMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self._delays = (server_module.RETRY_BASE_DELAY, server_module.RETRY_MAX_DELAY)
        server_module.RETRY_BASE_DELAY = server_module.RETRY_MAX_DELAY = 0.0
        self.registry = get_fault_registry()
        self.root = Path(tempfile.mkdtemp(prefix="recovery-machine-"))
        self.directory = self.root / "0"
        points = load_dataset("OSM1", N, seed=SEED)
        index = ZMIndex(builder=BUILDER).build(points)
        self.server = IndexServer(
            index, snapshots=self.directory, wal=True, **_options()
        ).start()
        self.model = Counter(map(tuple, points.tolist()))
        self.health = HEALTHY
        self.crashes = 0
        self.torn: set[int] = set()  # generations whose snapshot tore

    def teardown(self) -> None:
        self.server.close()
        self.registry.reset()
        server_module.RETRY_BASE_DELAY, server_module.RETRY_MAX_DELAY = self._delays
        shutil.rmtree(self.root, ignore_errors=True)

    # ------------------------------------------------------------------
    # The model
    # ------------------------------------------------------------------
    def _pick(self, i: int) -> np.ndarray:
        keys = sorted(self.model)
        return np.array(keys[i % len(keys)])

    def _apply(self, op: str, point: np.ndarray) -> None:
        key = tuple(point.tolist())
        if op == "insert":
            self.model[key] += 1
        elif self.model[key] > 0:
            self.model[key] -= 1
        self.model += Counter()  # drop zero counts

    def _update(self, op: str, point: np.ndarray) -> None:
        """One update through the server: acknowledged and applied to the
        model, or refused by a read-only server and applied nowhere."""
        if self.health == READ_ONLY:
            with pytest.raises(ServerReadOnly):
                getattr(self.server, op)(point)
            return
        result = getattr(self.server, op)(point)
        if op == "delete":
            assert result == (self.model[tuple(point.tolist())] > 0)
        self._apply(op, point)

    def _crash(self) -> None:
        """Copy the disk, close the old server, recover the copy.  Every
        torn snapshot newer than the newest whole one is quarantined on
        the way to it."""
        self.crashes += 1
        copy = self.root / str(self.crashes)
        shutil.copytree(self.directory, copy)
        self.server.close()
        self.directory = copy
        on_disk = {int(path.stem[4:]) for path in copy.glob("gen-*.npz")}
        newest_whole = max(on_disk - self.torn)
        self.server = IndexServer.from_snapshot(copy, wal=True, **_options()).start()
        self.health = HEALTHY
        for generation in on_disk & self.torn:
            path = copy / f"gen-{generation:06d}.npz"
            assert path.exists() == (generation < newest_whole)
            assert path.with_suffix(".npz.corrupt").exists() == (
                generation > newest_whole
            )

    # ------------------------------------------------------------------
    # Acknowledged updates
    # ------------------------------------------------------------------
    @rule(x=CELL, y=CELL)
    def insert_fresh(self, x, y):
        self._update("insert", _fresh(x, y))

    @rule(i=PICK)
    def insert_duplicate(self, i):
        self._update("insert", self._pick(i))

    @rule(i=PICK)
    def delete_present(self, i):
        self._update("delete", self._pick(i))

    @rule(x=CELL, y=CELL)
    def delete_absent(self, x, y):
        self._update("delete", _absent(x, y))

    # ------------------------------------------------------------------
    # Rebuilds and their faults
    # ------------------------------------------------------------------
    @rule(errors=st.integers(0, MAX_RETRIES + 1))
    def rebuild(self, errors):
        """``errors`` injected worker failures: up to the retry budget the
        rebuild converges to a healthy swap; one more leaves the server
        read-only on its old generation."""
        generation = self.server.generation
        fired = self.registry.triggered("rebuild.worker")
        if errors:
            self.registry.arm("rebuild.worker", kind="error", times=errors)
        if errors > MAX_RETRIES:
            with pytest.raises(RebuildFailed):
                self.server.rebuild_now()
            assert self.server.generation == generation
            self.health = READ_ONLY
        else:
            self.server.rebuild_now()
            assert self.server.generation == generation + 1
            self.health = HEALTHY
        assert self.registry.triggered("rebuild.worker") - fired == errors

    @rule()
    def rebuild_with_torn_snapshots(self):
        """Every save of the new generation's snapshot tears, retries
        included: the swap stands, the server is degraded, and the torn
        file stays on disk as the newest generation."""
        generation = self.server.generation
        self.registry.arm("snapshot.write", kind="torn_write", times=MAX_RETRIES + 1)
        self.server.rebuild_now()
        assert self.server.generation == generation + 1
        assert not self.registry.armed()
        self.health = DEGRADED
        self.torn.add(self.server.generation)

    # ------------------------------------------------------------------
    # WAL faults and crashes
    # ------------------------------------------------------------------
    @precondition(lambda self: self.health != READ_ONLY)
    @rule(x=CELL, y=CELL, then_crash=st.booleans())
    def torn_append(self, x, y, then_crash):
        """An append that fails partway is never acknowledged; the server
        then dies or keeps serving."""
        self.registry.arm("wal.append", kind="torn_write")
        with pytest.raises(InjectedFault):
            self.server.insert(_fresh(x, y))
        if then_crash:
            self._crash()

    @rule()
    def crash_between_updates(self):
        self._crash()

    @rule(insert=st.booleans(), x=CELL, y=CELL, i=PICK)
    def crash_after_durable_append(self, insert, x, y, i):
        """The update reached the log but its acknowledgement never left:
        recovery must keep it, so the model takes it."""
        op, point = ("insert", _fresh(x, y)) if insert else ("delete", self._pick(i))
        self.server.wal.append(op, point)
        self._apply(op, point)
        self._crash()

    @precondition(lambda self: self.health != READ_ONLY)
    @rule(x=CELL, y=CELL)
    def crash_mid_append(self, x, y):
        """The process dies with half a record written: recovery drops the
        torn tail, and the log cuts it off before its next append."""
        self.server.wal._file = _DiesMidWrite(self.server.wal._file)
        with pytest.raises(ProcessDied):
            self.server.insert(_fresh(x, y))
        self._crash()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def logical_set_equals_the_model(self):
        got = Counter(map(tuple, self.server._gen.processor.current_points().tolist()))
        assert got == self.model
        assert self.server.n_points == self.model.total()

    @invariant()
    def health_is_what_the_steps_imply(self):
        assert self.server.health == self.health

    @invariant()
    def answers_equal_brute_force(self):
        data = np.array(sorted(self.model.elements()))
        keys = sorted(self.model)
        probes = np.vstack([
            np.array(keys[:: max(1, len(keys) // 24)]),
            [_fresh(x, y) for x in range(0, GRID, 3) for y in range(0, GRID, 3)],
            [_absent(1, 2)],
        ])
        hits = self.server.submit_point_batch(probes).wait(30.0)
        np.testing.assert_array_equal(hits, point_truth(data, probes))
        rows, counts = self.server.submit(Request(
            WINDOW,
            win_lo=np.vstack([w.lo_array for w in WINDOWS]),
            win_hi=np.vstack([w.hi_array for w in WINDOWS]),
        )).wait(30.0)
        cuts = np.cumsum(counts)[:-1]
        assert_windows("ZM", data, WINDOWS, np.split(rows, cuts))
        nearest = self.server.submit(Request(KNN, KNN_QUERIES, K)).wait(30.0)
        assert_knn("ZM", data, KNN_QUERIES, K, nearest)


RecoveryMachine.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=30,
    derandomize=True,
    database=None,
    deadline=None,
)
TestRecoveryMachine = RecoveryMachine.TestCase
