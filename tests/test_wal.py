"""Tests for write-ahead durability: framing, replay, crash recovery.

These pin single transitions: framing, torn and corrupt records,
rotation, compaction and the recoveries that follow them.  The freely
interleaved version of the same contract — every acknowledged update
survives every crash — is the state machine of
``tests/test_recovery_machine.py``; ``test_crash_recovery_property`` keeps
two fixed-seed schedules of it against an uncrashed reference.
"""

import shutil
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.build_processor import ELSIModelBuilder
from repro.core.config import ELSIConfig
from repro.core.update_processor import UpdateProcessor
from repro.faults import InjectedFault, get_fault_registry
from repro.indices import ZMIndex
from repro.serve import (
    DEGRADED,
    FSYNC_POLICIES,
    HEALTHY,
    IndexServer,
    ServeConfig,
    WALCorruption,
    WriteAheadLog,
)
from tests.brute import make_schedule, verify_recovery


def _append_n(wal: WriteAheadLog, n: int, start: float = 0.0) -> None:
    for i in range(n):
        wal.append("insert", np.array([start + i / 100.0, 0.5]))


class TestFraming:
    def test_append_replay_round_trip(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync_policy="off") as wal:
            s1 = wal.append("insert", np.array([0.1, 0.2]))
            s2 = wal.append("delete", np.array([0.3, 0.4]))
        records = WriteAheadLog.replay_file(tmp_path / "wal-000000.log")
        assert [(r.seq, r.op) for r in records] == [(s1, "insert"), (s2, "delete")]
        np.testing.assert_array_equal(records[0].point, [0.1, 0.2])
        assert records[0].point.dtype == np.float64

    def test_bad_op_and_closed_log_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_policy="off")
        with pytest.raises(ValueError):
            wal.append("upsert", np.array([0.1, 0.2]))
        wal.close()
        with pytest.raises(ValueError):
            wal.append("insert", np.array([0.1, 0.2]))

    def test_fsync_policy_validated(self, tmp_path):
        for bad in ("sometimes", "batch"):
            with pytest.raises(ValueError):
                WriteAheadLog(tmp_path, fsync_policy=bad)
        for policy in FSYNC_POLICIES:
            WriteAheadLog(tmp_path / policy, fsync_policy=policy).close()


class TestTornAndCorrupt:
    def test_torn_tail_dropped_silently(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync_policy="off") as wal:
            _append_n(wal, 3)
            path = wal.path
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # crash mid-append: torn final record
        records = WriteAheadLog.replay_file(path)
        assert [r.seq for r in records] == [1, 2]

    def test_torn_header_dropped_silently(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync_policy="off") as wal:
            _append_n(wal, 2)
            path = wal.path
        path.write_bytes(path.read_bytes() + b"\x07\x00")  # 2 stray bytes
        assert len(WriteAheadLog.replay_file(path)) == 2

    def test_mid_file_corruption_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync_policy="off") as wal:
            _append_n(wal, 3)
            path = wal.path
        data = bytearray(path.read_bytes())
        # Flip a payload byte of the *second* record: a complete-but-wrong
        # record with valid data behind it is corruption, not a torn tail.
        record_len = len(data) // 3
        data[record_len + 12] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(WALCorruption):
            WriteAheadLog.replay_file(path)
        salvaged = WriteAheadLog.replay_file(path, salvage=True)
        assert [r.seq for r in salvaged] == [1]

    def test_reopened_log_cuts_its_torn_tail(self, tmp_path):
        """A log opened on a crash's torn tail cuts it off before its
        first append, so the record appended next replays strictly."""
        with WriteAheadLog(tmp_path, fsync_policy="off") as wal:
            _append_n(wal, 2)
            path = wal.path
        path.write_bytes(path.read_bytes()[:-3])  # crash mid-append
        with WriteAheadLog(tmp_path, fsync_policy="off") as wal:
            assert wal.depth == 1
            assert wal.append("insert", np.array([0.9, 0.9])) == 2
        assert [r.seq for r in WriteAheadLog.replay_file(path)] == [1, 2]

    def test_failed_append_cuts_back_to_the_last_whole_record(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync_policy="off") as wal:
            _append_n(wal, 2)
            size = wal.path.stat().st_size
            get_fault_registry().arm("wal.append", kind="torn_write")
            with pytest.raises(InjectedFault):
                wal.append("insert", np.array([0.7, 0.7]))
            assert wal.path.stat().st_size == size
            assert wal.depth == 2
            wal.append("insert", np.array([0.8, 0.8]))
        assert len(WriteAheadLog.replay_file(wal.path)) == 3

    def test_implausible_length_is_corruption(self, tmp_path):
        path = tmp_path / "wal-000000.log"
        path.write_bytes(b"\xff\xff\xff\x7f" + b"\x00" * 64)
        with pytest.raises(WALCorruption):
            WriteAheadLog.replay_file(path)
        assert WriteAheadLog.replay_file(path, salvage=True) == []


class TestRotation:
    def test_seq_continues_across_rotations_and_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_policy="off")
        _append_n(wal, 3)
        wal.rotate(1)
        assert wal.depth == 0
        _append_n(wal, 2)
        wal.close()
        reopened = WriteAheadLog(tmp_path, generation=1, fsync_policy="off")
        assert reopened.depth == 2
        seq = reopened.append("insert", np.array([0.9, 0.9]))
        reopened.close()
        assert seq == 6
        records = WriteAheadLog.replay_dir(tmp_path)
        assert [r.seq for r in records] == [1, 2, 3, 4, 5, 6]

    def test_replay_dir_orders_by_generation(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_policy="off")
        _append_n(wal, 2)
        wal.rotate(2)
        _append_n(wal, 2)
        wal.close()
        records = WriteAheadLog.replay_dir(tmp_path, from_generation=2)
        assert [r.seq for r in records] == [3, 4]

    def test_carried_records_dedup_on_replay(self, tmp_path):
        """A record carried across a rotation (re-appended under its
        original seq) replays exactly once, whichever logs survive."""
        wal = WriteAheadLog(tmp_path, fsync_policy="off")
        _append_n(wal, 3)  # seqs 1..3 in gen 0
        wal.rotate(1)
        wal.append("insert", np.array([0.02, 0.5]), seq=3, sync=False)
        wal.sync()
        assert wal.append("insert", np.array([0.9, 0.9])) == 4
        wal.close()
        # Both logs present: the carried seq 3 appears once, from gen 0.
        assert [r.seq for r in WriteAheadLog.replay_dir(tmp_path)] == [1, 2, 3, 4]
        # Old log compacted away: the carried copy in gen 1 covers seq 3.
        tail = WriteAheadLog.replay_dir(tmp_path, from_generation=1)
        assert [r.seq for r in tail] == [3, 4]

    def test_remove_through_spares_current(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_policy="off")
        _append_n(wal, 1)
        wal.rotate(1)
        _append_n(wal, 1)
        wal.rotate(2)
        removed = wal.remove_through(2)
        wal.close()
        assert [p.name for p in removed] == ["wal-000000.log", "wal-000001.log"]
        assert wal.generations() == [2]


@pytest.fixture(scope="module")
def small_index(osm_points):
    config = ELSIConfig(train_epochs=60)
    return ZMIndex(builder=ELSIModelBuilder(config, method="SP")).build(
        osm_points[:600]
    )


class TestCrashRecovery:
    """Acknowledged updates survive crashes: snapshot + WAL tail."""

    def _open(self, snapshots, index=None, **kwargs):
        config = ELSIConfig(train_epochs=60)
        factory = lambda: ZMIndex(builder=ELSIModelBuilder(config, method="SP"))  # noqa: E731
        common = dict(
            config=ServeConfig(auto_rebuild=False),
            elsi_config=config,
            index_factory=factory,
            wal=True,
            **kwargs,
        )
        if index is not None:
            return IndexServer(index, snapshots=snapshots, **common)
        return IndexServer.from_snapshot(snapshots, **common)

    def test_recovery_without_rebuild(self, small_index, tmp_path):
        server = self._open(str(tmp_path), index=small_index)
        fresh = np.array([0.123, 0.456])
        server.insert(fresh)
        server.close()
        restored = self._open(str(tmp_path))
        with restored:
            assert restored.generation == 0
            assert restored.point_query(fresh)
        restored.close()

    def test_recovery_after_rebuild_and_tail(self, small_index, tmp_path):
        server = self._open(str(tmp_path), index=small_index)
        before = np.array([0.21, 0.22])
        server.insert(before)
        server.rebuild_now()
        after = np.array([0.31, 0.32])
        server.insert(after)
        gen = server.generation
        server.close()
        restored = self._open(str(tmp_path))
        with restored:
            assert restored.generation == gen
            assert restored.point_query(before)
            assert restored.point_query(after)
        restored.close()

    def test_during_rebuild_update_survives_recovery(self, small_index, tmp_path):
        """An update acknowledged while a rebuild is in flight must be
        carried into the new generation's WAL: the post-rebuild snapshot
        holds only the base index, so without the carry a crash after
        compaction silently drops the fsynced, acknowledged update."""
        server = self._open(str(tmp_path), index=small_index)
        get_fault_registry().arm(
            "rebuild.worker", kind="delay", times=1, delay_seconds=0.4
        )
        worker = threading.Thread(target=server.rebuild_now)
        worker.start()
        deadline = time.time() + 10.0
        while not server._rebuilding and time.time() < deadline:
            time.sleep(0.005)
        assert server._rebuilding, "rebuild never entered its in-flight window"
        mid = np.array([0.777, 0.888])
        server.insert(mid)  # acknowledged while the rebuild is in flight
        worker.join()
        assert server.generation == 1
        server.close()
        # The new generation's log must contain the carried record — the
        # gen-1 snapshot alone does not include it.
        carried = WriteAheadLog.replay_file(Path(tmp_path) / "wal-000001.log")
        assert any(np.array_equal(r.point, mid) for r in carried)
        restored = self._open(str(tmp_path))
        with restored:
            assert restored.generation == 1
            assert restored.point_query(mid)
        restored.close()

    def test_fallback_to_previous_generation_after_compaction(
        self, small_index, tmp_path
    ):
        """If the newest snapshot is unloadable, recovery falls back one
        generation — and the retained previous-generation WAL makes the
        fallback lossless (carried records dedup by seq)."""
        server = self._open(str(tmp_path), index=small_index)
        before = np.array([0.21, 0.22])
        server.insert(before)
        server.rebuild_now()  # gen 1: snapshot saved, wal-0 retained
        after = np.array([0.31, 0.32])
        server.insert(after)
        server.close()
        assert (Path(tmp_path) / "wal-000000.log").exists()
        snap = Path(tmp_path) / "gen-000001.npz"
        snap.write_bytes(snap.read_bytes()[: snap.stat().st_size // 2])
        restored = self._open(str(tmp_path))
        with restored:
            assert restored.health == HEALTHY  # coverage intact: no gap
            assert restored.point_query(before)
            assert restored.point_query(after)
        restored.close()

    def test_rebuilds_keep_two_snapshots_and_two_logs(
        self, small_index, osm_points, tmp_path
    ):
        """Every rebuild compacts snapshots and logs alike to the current
        and the previous generation, and a torn newest snapshot still
        recovers every acknowledged update from the previous one."""
        base = osm_points[:600]
        schedule = make_schedule(base, 16, 3)
        server = self._open(str(tmp_path), index=small_index)
        for i, (op, point) in enumerate(schedule):
            server.insert(point) if op == "insert" else server.delete(point)
            if i % 4 == 3:
                server.rebuild_now()
        assert server.generation == 4
        server.close()
        assert sorted(p.name for p in Path(tmp_path).iterdir()) == [
            "gen-000003.npz", "gen-000004.npz", "wal-000003.log", "wal-000004.log",
        ]
        snap = Path(tmp_path) / "gen-000004.npz"
        snap.write_bytes(snap.read_bytes()[: snap.stat().st_size // 2])
        restored = self._open(str(tmp_path))
        try:
            assert restored.health == HEALTHY  # both logs kept: no gap
            recovered = restored._gen.processor.current_points()
            assert verify_recovery(base, schedule, len(schedule), recovered) == len(schedule)
        finally:
            restored.close()

    def test_compaction_after_a_fallback_keeps_the_fallback(
        self, small_index, osm_points, tmp_path
    ):
        """A recovery that fell back past a torn snapshot serves a
        generation with no snapshot of its own; the next rebuild keeps the
        snapshot it fell back to and that one's logs, so a second torn
        snapshot still recovers every acknowledged update."""
        base = osm_points[:600]
        schedule = make_schedule(base, 9, 5)
        directory = Path(tmp_path)

        def tear(gen):
            snap = directory / f"gen-{gen:06d}.npz"
            snap.write_bytes(snap.read_bytes()[: snap.stat().st_size // 2])

        server = self._open(str(tmp_path), index=small_index)
        for op, point in schedule[:3]:
            server.insert(point) if op == "insert" else server.delete(point)
        server.rebuild_now()  # gen 1
        for op, point in schedule[3:6]:
            server.insert(point) if op == "insert" else server.delete(point)
        server.close()
        tear(1)
        server = self._open(str(tmp_path))  # gen 0's snapshot + wal-0, wal-1
        assert server.generation == 1
        for op, point in schedule[6:]:
            server.insert(point) if op == "insert" else server.delete(point)
        server.rebuild_now()  # gen 2
        server.close()
        assert sorted(p.name for p in directory.iterdir()) == [
            "gen-000000.npz", "gen-000001.npz.corrupt", "gen-000002.npz",
            "wal-000000.log", "wal-000001.log", "wal-000002.log",
        ]
        tear(2)
        restored = self._open(str(tmp_path))
        try:
            assert restored.health == HEALTHY
            recovered = restored._gen.processor.current_points()
            assert verify_recovery(base, schedule, len(schedule), recovered) == len(schedule)
        finally:
            restored.close()

    def _crash(self, server, directory: Path) -> Path:
        """The directory as a crash leaves it: copied from disk before the
        old server closes, so nothing it never flushed reaches the copy."""
        copy = directory.with_name(directory.name + "-crash")
        shutil.copytree(directory, copy)
        server.close()
        return copy

    def test_torn_append_crash_recover_then_acknowledged_updates_survive(
        self, small_index, tmp_path
    ):
        """Torn append, crash, recovery, three acknowledged updates, crash:
        strict recovery finds all three and comes up healthy."""
        server = self._open(str(tmp_path / "a"), index=small_index)
        get_fault_registry().arm("wal.append", kind="torn_write")
        with pytest.raises(InjectedFault):
            server.insert(np.array([0.61, 0.62]))
        directory = self._crash(server, tmp_path / "a")
        server = self._open(str(directory))
        acked = [np.array([0.1 * i, 0.33]) for i in (1, 2, 3)]
        for point in acked:
            server.insert(point)
        directory = self._crash(server, directory)
        restored = self._open(str(directory))
        try:
            assert restored.health == HEALTHY
            assert restored._gen.processor.point_queries(np.array(acked)).all()
            assert not restored._gen.processor.point_query(np.array([0.61, 0.62]))
        finally:
            restored.close()

    def test_append_after_a_torn_append_on_the_same_server_survives(
        self, small_index, tmp_path
    ):
        server = self._open(str(tmp_path / "a"), index=small_index)
        get_fault_registry().arm("wal.append", kind="torn_write")
        with pytest.raises(InjectedFault):
            server.insert(np.array([0.61, 0.62]))
        acked = np.array([0.44, 0.45])
        server.insert(acked)
        restored = self._open(str(self._crash(server, tmp_path / "a")))
        try:
            assert restored.health == HEALTHY
            assert restored._gen.processor.point_query(acked)
        finally:
            restored.close()

    def test_strict_replay_raises_salvage_degrades(self, small_index, tmp_path):
        """Mid-file corruption of acknowledged records fails recovery
        loudly by default; salvage=True recovers best-effort but the
        server comes up degraded instead of reporting clean health."""
        server = self._open(str(tmp_path), index=small_index)
        server.insert(np.array([0.11, 0.12]))
        server.insert(np.array([0.13, 0.14]))
        server.close()
        wal_path = Path(tmp_path) / "wal-000000.log"
        data = bytearray(wal_path.read_bytes())
        data[12] ^= 0xFF  # corrupt the first record's payload, not the tail
        wal_path.write_bytes(bytes(data))
        with pytest.raises(WALCorruption):
            self._open(str(tmp_path))
        restored = self._open(str(tmp_path), salvage=True)
        assert restored.health == DEGRADED
        restored.close()

    def test_fallback_past_wal_horizon_degrades(self, small_index, tmp_path):
        """Falling back to a generation whose WAL was already compacted
        away cannot be lossless — recovery must say so via health."""
        server = self._open(str(tmp_path), index=small_index)
        server.insert(np.array([0.41, 0.42]))
        server.rebuild_now()  # gen 1
        server.close()
        # Simulate over-aggressive compaction plus a bad newest snapshot:
        # the fallback generation's deltas are gone.
        (Path(tmp_path) / "wal-000000.log").unlink()
        snap = Path(tmp_path) / "gen-000001.npz"
        snap.write_bytes(snap.read_bytes()[: snap.stat().st_size // 2])
        restored = self._open(str(tmp_path))
        assert restored.health == DEGRADED
        restored.close()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_crash_recovery_property(self, small_index, osm_points, tmp_path, seed):
        """Randomized schedule of updates/rebuilds/crashes: after every
        recovery the server reports every acknowledged update, and query
        results are bit-identical to an uncrashed reference."""
        base = osm_points[:600]
        schedule = make_schedule(base, 36, seed)
        rng = np.random.default_rng(seed)
        crash_points = sorted(
            int(c) for c in rng.choice(np.arange(4, 36), size=2, replace=False)
        )
        rebuild_at = int(rng.integers(2, 36))

        server = self._open(str(tmp_path), index=small_index)
        reference = UpdateProcessor(small_index, ELSIConfig(train_epochs=60))
        applied = 0
        try:
            for i, (op, point) in enumerate(schedule):
                if i == rebuild_at:
                    server.rebuild_now()
                if i in crash_points:
                    # Crash: the old handle is gone, recovery reads disk.
                    server.close()
                    server = self._open(str(tmp_path))
                    m = verify_recovery(
                        base, schedule, applied,
                        server._gen.processor.current_points(),
                    )
                    assert m == applied, "recovered more/less than acknowledged"
                if op == "insert":
                    server.insert(point)
                    reference.insert(point)
                else:
                    server.delete(point)
                    reference.delete(point)
                applied += 1
            server.close()
            server = self._open(str(tmp_path))
            m = verify_recovery(
                base, schedule, applied, server._gen.processor.current_points()
            )
            assert m == len(schedule)
            # Bit-identical query results vs the uncrashed reference.
            probes = np.vstack([base[:50], [p for _, p in schedule]])
            np.testing.assert_array_equal(
                server._gen.processor.point_queries(probes),
                reference.point_queries(probes),
            )
        finally:
            server.close()
