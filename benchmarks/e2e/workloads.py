"""Workload definitions: the same operations through four routes.

Every workload runs the same round: ``cycles`` times one ``point`` call, one
``window`` call and one ``knn`` call, interleaved so that each read metric
samples the whole round, on the index (server, cluster) that set-up built.
The traced pass runs *full* rounds, which also ``build`` their own index
first and end with one ``insert`` block.  Operation counts are constants,
and the inputs are seed-determined.  What differs is the *route* the
operations take into the index, so that each layer of ``repro`` does most of
the work on one workload and none on another (see README.md):

- ``zm_batch_300k``       direct batch API of one ELSI-built ZM index;
- ``four_idx_scalar_20k`` scalar API of the paper's four indices;
- ``serve_zm_200k``       ``IndexServer`` requests, one client, 128 in flight;
- ``shard2_zm_200k``      the shard router over two worker processes.

Rounds are stationary: reads never see a side list, because only full
rounds insert and a full round builds its own index / server / cluster from
the same data and tears it down at its end.

All inputs are made here from ``--seed``; the program under test receives
only the generated arrays.
"""

from __future__ import annotations

import gc
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import ELSIConfig
from repro.core.elsi import ELSI
from repro.core.update_processor import UpdateProcessor
from repro.data.datasets import load_dataset
from repro.indices import LISAIndex, MLIndex, RSMIIndex, ZMIndex
from repro.serve.server import IndexServer, ServeConfig
from repro.shard import build_cluster
from repro.spatial.rect import Rect

import oracle

__all__ = ["WORKLOADS", "Scale", "Workload", "closed_loop", "rss_mb"]

DATASET = "OSM1"
#: The data is the same for every ``--seed``; the seed draws every probe,
#: window, kNN query and insert.  OSM1's hub layout depends on its generator
#: seed, and with it the rows per window moved 4x between seeds; and even
#: between samples of one population the trained models, and with them all
#: three read rates of the scalar workload together, moved +-5 %, which the
#: driver reads as run-to-run spread.  (The paper's data sets are fixed too.)
DATA_SEED = 0
K = 25
WINDOW_SIDE = 1e-4 ** 0.5  # windows cover 1e-4 of the unit square
METHOD = "SP"
ELSI_KWARGS = {"train_epochs": 300, "parallelism": "serial", "dtype": "float64"}
#: Requests the single client keeps outstanding (closed loop).
PIPELINE = 128
#: ``ServeConfig()`` defaults except: no background rebuilds, and the WAL
#: is written and flushed to the OS but not fsynced.  The state directory
#: must live inside the checkout, i.e. on this VM's virtual disk, where an
#: fsync costs ~0.4 ms and would make ``insert_qps`` a measurement of the
#: disk.  The fsync cost is reported per layer (serve.wal.append_us_fsync).
SERVE_KWARGS = {"auto_rebuild": False, "fsync_policy": "off"}
SHARD_SERVE_KWARGS = {**SERVE_KWARGS, "max_wait_seconds": 0.0}

READS = ("point", "window", "knn")
PHASES = ("build", *READS, "insert")


@dataclass(frozen=True)
class Scale:
    """Data size and the operations of one round (constants: the work of a
    round is identical from run to run)."""

    n: int
    cycles: int
    point_call: int  # probes per point call
    window_call: int
    knn_call: int
    inserts: int  # inserts of the block that ends the round


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set of this process (or of its reaped children), MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def closed_loop(submit, items, tally: oracle.Tally, timeout: float = 30.0) -> list:
    """One client, ``PIPELINE`` requests outstanding: submit a flight, wait
    for all of it, repeat.  Refusals, timeouts and errors are tallied and
    leave ``None`` in the answer list."""
    out: list = [None] * len(items)
    for lo in range(0, len(items), PIPELINE):
        flight = []
        for item in items[lo : lo + PIPELINE]:
            try:
                flight.append(submit(item))
            except Exception as exc:  # noqa: BLE001 - tallied, the run goes on
                tally.fail(f"submit refused: {type(exc).__name__}: {exc}")
                flight.append(None)
        for j, reply in enumerate(flight):
            if reply is None:
                continue
            try:
                out[lo + j] = reply.wait(timeout)
            except Exception as exc:  # noqa: BLE001
                tally.fail(f"request failed: {type(exc).__name__}: {exc}")
    return out


class Workload:
    """Inputs, rounds and oracle check of one workload (its layer replays
    are in ``layers.py``).

    A subclass gives the route: ``open`` (the build phase), one call each
    of ``points`` / ``windows_call`` / ``knn``, the ``insert`` block,
    ``found`` (are these points indexed now?) and ``shut``.
    """

    name = ""
    full: Scale
    smoke = Scale(n=5_000, cycles=2, point_call=1_024, window_call=32, knn_call=16, inserts=200)
    #: Indices that answer every query (four on the four-index run).
    fanout = 1
    #: Parts of the calibration kernel that are of this route's kind of
    #: code (``hostspeed.py``): timings are scaled by their seconds.
    host_mix: tuple[str, ...] = ("interp", "calls", "arrays")

    def __init__(self, seed: int, smoke: bool, statedir: Path, rec, tally: oracle.Tally,
                 clock):
        self.seed = seed
        self.clock = clock
        self.is_smoke = smoke
        self.scale = self.smoke if smoke else self.full
        self.statedir = statedir
        self.rec = rec
        self.tally = tally
        self.recording = False
        #: phase -> one (operations, seconds) pair per recorded round
        self.samples: dict[str, list[tuple[int, float]]] = {p: [] for p in PHASES}
        #: read kind -> one (operations, seconds, seconds at the reference
        #: host speed) triple per recorded call
        self.calls: dict[str, list[tuple[int, float, float]]] = {k: [] for k in READS}
        self.last_seconds: dict[str, float] = {}
        #: layer -> share of an end-to-end figure (filled by the traced pass)
        self.shares: dict[str, float] = {}
        self._dirs = 0

    # -- inputs --------------------------------------------------------
    def setup(self) -> None:
        s = self.scale
        rng = np.random.default_rng([self.seed, 1])
        started = time.perf_counter()
        self.data = load_dataset(DATASET, s.n, DATA_SEED)
        self.generate_s = time.perf_counter() - started
        # 3/4 hits drawn from the data, 1/4 uniform misses, shuffled.
        total = s.cycles * s.point_call
        misses = total // 4
        probes = np.concatenate(
            [self.data[rng.integers(0, s.n, total - misses)], rng.random((misses, 2))]
        )
        self.probes = probes[rng.permutation(total)]
        # Windows, kNN queries and inserts follow the data.
        centres = self.data[rng.integers(0, s.n, s.cycles * s.window_call)]
        self.windows = [Rect.centered(c, WINDOW_SIDE) for c in centres]
        self.knn_queries = self._near_data(rng, s.cycles * s.knn_call)
        self.inserts = self._near_data(rng, s.inserts)
        self.check_rng = np.random.default_rng([self.seed, 2])
        self.config = ELSIConfig(**ELSI_KWARGS)
        self.elsi = ELSI(self.config)

    def _near_data(self, rng, count: int) -> np.ndarray:
        base = self.data[rng.integers(0, self.scale.n, count)]
        return np.clip(base + rng.normal(0.0, 1e-3, base.shape), 0.0, 1.0)

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.statedir / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    # -- the route (subclasses) ----------------------------------------
    def open(self) -> None:
        raise NotImplementedError

    def points(self, probes) -> list:
        raise NotImplementedError

    def windows_call(self, windows) -> list:
        raise NotImplementedError

    def knn(self, queries) -> list:
        raise NotImplementedError

    def before_insert(self) -> None:
        """Untimed preparation of the insert block."""

    def insert(self, points) -> None:
        raise NotImplementedError

    def found(self, points):
        raise NotImplementedError

    def shut(self) -> None:
        """Stop what ``open`` started (server, workers); always called."""

    def release(self) -> None:
        """Drop the references to what the last round built."""

    # -- rounds --------------------------------------------------------
    def timed(self, phase: str, ops: int, fn, spent: dict):
        """One timed call between two samples of the host's speed; its
        seconds are added to the round's ``spent``."""
        self.tally.ops(ops)
        def spanned():
            with self.rec.span(f"phase:{phase}", ops=ops):
                return fn()

        try:
            out, elapsed, scaled = self.clock.timed(spanned)
        except Exception as exc:
            self.tally.fail(f"phase {phase} raised {type(exc).__name__}: {exc}", ops)
            raise
        done, seconds, scaled_seconds = spent.get(phase, (0, 0.0, 0.0))
        spent[phase] = (done + ops, seconds + elapsed, scaled_seconds + scaled)
        if self.recording and phase in self.calls:
            self.calls[phase].append((ops, elapsed, scaled))
        return out

    def run_round(self, full: bool = False) -> float:
        """``cycles`` x (point, window, knn) on the standing index; a
        ``full`` round (traced pass) first builds its own (``build``), ends
        with the ``insert`` block and tears down again.

        A full round drops what the last one built before it builds, so that
        every build allocates into the space the previous one freed: with
        the old index still alive the heap kept growing for three rounds and
        those builds paid 0.4 s of page faults each.  The collector runs
        once before a round and is off while it lasts.  Returns the round's
        timed seconds at the reference host speed."""
        s, f = self.scale, self.fanout
        spent: dict[str, tuple[int, float, float]] = {}
        answers: dict[str, list] = {kind: [] for kind in READS}
        self.answers = None
        if full:
            self.release()
        gc.collect()
        gc.disable()
        try:
            if full:
                self.timed("build", f, self.open, spent)
            try:
                for c in range(s.cycles):
                    for kind, call, items, size in (
                        ("point", self.points, self.probes, s.point_call),
                        ("window", self.windows_call, self.windows, s.window_call),
                        ("knn", self.knn, self.knn_queries, s.knn_call),
                    ):
                        chunk = items[c * size : (c + 1) * size]
                        answers[kind].append(
                            self.timed(kind, f * size, lambda: call(chunk), spent))
                if full:
                    self.before_insert()
                    self.timed("insert", f * s.inserts, lambda: self.insert(self.inserts), spent)
                    self.check_inserts_found(self.name, self.found(self.inserts))
            finally:
                if full:
                    self.shut()
        finally:
            gc.enable()
        self.answers = answers
        for phase, (ops, seconds, _scaled) in spent.items():
            self.last_seconds[phase] = seconds
            if self.recording:
                self.samples[phase].append((ops, seconds))
        return sum(scaled for _ops, _seconds, scaled in spent.values())

    # -- oracle --------------------------------------------------------
    def check(self) -> None:
        """Check the last round's answers against brute force (untimed)."""
        flat = {kind: [a for call in calls for a in call] for kind, calls in self.answers.items()}
        self.check_answers(self.name, flat["point"], flat["window"], flat["knn"])

    def check_answers(self, label, point_out, window_out, knn_out) -> None:
        rng, t = self.check_rng, self.tally
        ids = oracle.sample_ids(rng, len(self.probes))
        oracle.check_points(self.data, self.probes, point_out, ids, t, label)
        ids = oracle.sample_ids(rng, len(self.windows))
        oracle.check_windows(self.data, self.windows, window_out, ids, t, label)
        ids = oracle.sample_ids(rng, len(self.knn_queries))
        oracle.check_knn(self.data, self.knn_queries, K, knn_out, ids, t, label)

    def check_inserts_found(self, label: str, found) -> None:
        missing = int(len(found) - np.count_nonzero(np.asarray(found, dtype=bool)))
        if missing:
            self.tally.fail(
                f"{label}: {missing} acknowledged inserts not found", missing, wrong=True
            )


class ZMBatch(Workload):
    name = "zm_batch_300k"
    full = Scale(n=300_000, cycles=10, point_call=65_536, window_call=1_024, knn_call=384,
                 inserts=200_000)

    def release(self) -> None:
        self.index = self.updates = None

    def open(self) -> None:
        self.index = self.elsi.build(ZMIndex, self.data, method=METHOD)

    def points(self, probes):
        return self.index.point_queries(probes)

    def windows_call(self, windows):
        return self.index.window_queries(windows)

    def knn(self, queries):
        return self.index.knn_queries(queries, K)

    def before_insert(self) -> None:
        self.updates = self.elsi.updates(self.index)

    def insert(self, points) -> None:
        # ELSI's default update procedure: the side list of the processor.
        insert = self.updates.insert
        for p in points:
            insert(p)

    def found(self, points):
        return self.updates.point_queries(points)



class FourIdxScalar(Workload):
    name = "four_idx_scalar_20k"
    # Calls are per index; every index answers the same queries.
    full = Scale(n=20_000, cycles=10, point_call=48, window_call=16, knn_call=12, inserts=200)
    smoke = Scale(n=5_000, cycles=2, point_call=32, window_call=32, knn_call=32, inserts=64)
    classes = (ZMIndex, MLIndex, RSMIIndex, LISAIndex)
    fanout = len(classes)
    host_mix = ("calls",)  # one query at a time is many tiny NumPy calls

    def release(self) -> None:
        self.indices = self.updates = None

    def open(self) -> None:
        self.indices = [self.elsi.build(c, self.data, method=METHOD) for c in self.classes]

    def points(self, probes):
        return [[ix.point_query(p) for p in probes] for ix in self.indices]

    def windows_call(self, windows):
        return [[ix.window_query(w) for w in windows] for ix in self.indices]

    def knn(self, queries):
        return [[ix.knn_query(q, K) for q in queries] for ix in self.indices]

    def before_insert(self) -> None:
        self.updates = [UpdateProcessor(ix, self.config, native=True) for ix in self.indices]

    def insert(self, points) -> None:
        # The paper's Figure 15 setting: the indices' built-in insertion.
        for up in self.updates:
            insert = up.insert
            for p in points:
                insert(p)

    def found(self, points):
        return [up.point_query(p) for up in self.updates for p in points]

    def check(self) -> None:
        for i, ix in enumerate(self.indices):
            per_index = {kind: [a for call in calls for a in call[i]]
                         for kind, calls in self.answers.items()}
            self.check_answers(f"{self.name}/{ix.name}", per_index["point"],
                               per_index["window"], per_index["knn"])



class ServeZM(Workload):
    name = "serve_zm_200k"
    full = Scale(n=200_000, cycles=8, point_call=2_048, window_call=1_024, knn_call=384,
                 inserts=25_000)
    smoke = Scale(n=5_000, cycles=2, point_call=512, window_call=128, knn_call=64, inserts=500)
    server = directory = None

    def setup(self) -> None:
        super().setup()
        self.serve_config = ServeConfig(**SERVE_KWARGS)

    def open_server(self, directory: Path) -> IndexServer:
        """Build the index and bring a durable server up on ``directory``."""
        index = self.elsi.build(ZMIndex, self.data, method=METHOD)
        server = IndexServer(
            index, self.serve_config, elsi_config=self.config,
            snapshots=str(directory), wal=True,
        ).start()
        if not server.point_query(self.data[0]):
            self.tally.fail("first answer of a fresh server is wrong", wrong=True)
        return server

    def open(self) -> None:
        self.directory = self.fresh_dir("serve")
        self.server = self.open_server(self.directory)

    def points(self, probes):
        answers = closed_loop(self.server.submit_point, list(probes), self.tally)
        return [False if a is None else a for a in answers]

    def windows_call(self, windows):
        answers = closed_loop(self.server.submit_window, windows, self.tally)
        return [np.empty((0, 2)) if a is None else a for a in answers]

    def knn(self, queries):
        submit = lambda q: self.server.submit_knn(q, K)  # noqa: E731
        answers = closed_loop(submit, list(queries), self.tally)
        return [np.empty((0, 2)) if a is None else a for a in answers]

    def insert(self, points) -> None:
        insert = self.server.insert
        for p in points:
            insert(p)

    def found(self, points):
        return self.server.submit_point_batch(points).wait(60.0)

    def shut(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)



class Shard2ZM(Workload):
    name = "shard2_zm_200k"
    full = Scale(n=200_000, cycles=10, point_call=65_536, window_call=384, knn_call=192,
                 inserts=600)
    smoke = Scale(n=5_000, cycles=2, point_call=1_024, window_call=32, knn_call=16, inserts=100)
    n_shards = 2
    router = directory = None

    def open_cluster(self, directory: Path):
        router = build_cluster(
            self.data, directory, n_shards=self.n_shards, index="ZM", method=METHOD,
            elsi=dict(ELSI_KWARGS), serve=dict(SHARD_SERVE_KWARGS), wal=True,
        )
        try:
            if not router.point_queries(self.data[:1])[0]:
                self.tally.fail("first answer of a fresh cluster is wrong", wrong=True)
        except BaseException:
            router.close()
            raise
        return router

    def open(self) -> None:
        self.directory = self.fresh_dir("shard")
        self.router = self.open_cluster(self.directory)

    def points(self, probes):
        return self.router.point_queries(probes)

    def windows_call(self, windows):
        return self.router.window_queries(windows)

    def knn(self, queries):
        return self.router.knn_queries(queries, K)

    def insert(self, points) -> None:
        insert = self.router.insert
        for p in points:
            insert(p)

    def found(self, points):
        return self.router.point_queries(points)

    def shut(self) -> None:
        if self.router is not None:
            self.router.close()  # stops both workers and waits for them
            self.router = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)



WORKLOADS = {w.name: w for w in (ZMBatch, FourIdxScalar, ServeZM, Shard2ZM)}
