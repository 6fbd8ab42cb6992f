"""Cluster assembly: build or reopen a full sharded serving tier.

``build_cluster`` is the from-scratch path: compute the shard map over
the build data, write the durable layout, partition the points, spawn one
worker per shard (each builds its own index and writes its base
snapshot + WAL under its own directory), and hand back a started
:class:`~repro.shard.router.ShardRouter`.

``open_cluster`` is the restart path: reload ``shard_map.json`` and
``cluster.json``, spawn every worker with ``recover=True`` so each shard
comes back from its latest loadable snapshot plus WAL-tail replay —
exactly the single-server recovery contract, one directory per shard.

Durable layout under the cluster directory::

    shard_map.json          boundaries + bounds (+ the curve and bits it keys by)
    cluster.json            index kind, method, config, serve knobs
    shard-000/              per-shard: build_points.npy, gen-NNNNNN.npz
    shard-001/              snapshots, wal-NNNNNN.log files
    ...
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.indices import LEARNED_INDICES
from repro.shard.handle import ShardHandle
from repro.shard.router import ShardRouter
from repro.shard.shardmap import ShardMap
from repro.shard.worker import BUILD_POINTS_FILE, WorkerSpec, capture_env

__all__ = ["build_cluster", "open_cluster"]

_CLUSTER_FILE = "cluster.json"
_MAP_FILE = "shard_map.json"
_CLUSTER_VERSION = 1


def _shard_dir(directory: Path, shard_id: int) -> Path:
    return directory / f"shard-{shard_id:03d}"


def _check_index(name: str) -> None:
    """Refuse an index name no worker could serve, in the parent."""
    if name not in LEARNED_INDICES:
        raise ValueError(
            f"no learned index named {name!r}; "
            f"known names: {', '.join(sorted(LEARNED_INDICES))}"
        )


def _spawn_all(specs: "list[WorkerSpec]") -> "list[ShardHandle]":
    """Spawn every worker, closing the ones already up if any fails."""
    handles: list[ShardHandle] = []
    try:
        for spec in specs:
            handles.append(ShardHandle(spec))
    except BaseException:
        for handle in handles:
            handle.close()
        raise
    return handles


def build_cluster(
    points: np.ndarray,
    directory: "str | Path",
    n_shards: int,
    index: str = "ZM",
    method: str = "SP",
    elsi: "dict | None" = None,
    serve: "dict | None" = None,
    wal: bool = True,
) -> ShardRouter:
    """Partition, persist, spawn, and front ``points`` with a router.

    ``elsi`` / ``serve`` are keyword dicts for each worker's ``ELSIConfig``
    and ``ServeConfig``; the workers inherit ``REPRO_FAULTS`` as it is set
    now (:func:`~repro.shard.worker.capture_env`).  The shard map is a
    Z-order map at its default resolution.  ``index`` is a name of
    :data:`repro.indices.LEARNED_INDICES`; an unknown one is refused here,
    before anything is written or spawned.
    """
    _check_index(index)
    pts = np.asarray(points, dtype=np.float64)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shard_map = ShardMap.from_points(pts, n_shards)
    shard_map.save(directory / _MAP_FILE)
    meta = {
        "version": _CLUSTER_VERSION,
        "index": index,
        "method": method,
        "elsi": dict(elsi or {}),
        "serve": dict(serve or {}),
        "wal": bool(wal),
        "n_shards": shard_map.n_shards,
    }
    (directory / _CLUSTER_FILE).write_text(
        json.dumps(meta, indent=2, sort_keys=True)
    )
    owners = shard_map.shard_of_points(pts)
    worker_env = capture_env()
    specs = []
    for sid in range(shard_map.n_shards):
        shard_dir = _shard_dir(directory, sid)
        shard_dir.mkdir(parents=True, exist_ok=True)
        np.save(shard_dir / BUILD_POINTS_FILE, pts[owners == sid])
        specs.append(
            WorkerSpec(
                shard_id=sid,
                directory=str(shard_dir),
                index=index,
                method=method,
                elsi=dict(elsi or {}),
                serve=dict(serve or {}),
                env=worker_env,
                wal=bool(wal),
            )
        )
    return ShardRouter(shard_map, _spawn_all(specs))


def open_cluster(directory: "str | Path") -> ShardRouter:
    """Reopen a persisted cluster: every shard recovers from its own
    snapshots + WAL replay (``IndexServer.from_snapshot(..., wal=True)``)."""
    directory = Path(directory)
    shard_map = ShardMap.load(directory / _MAP_FILE)
    meta = json.loads((directory / _CLUSTER_FILE).read_text())
    if meta.get("version") != _CLUSTER_VERSION:
        raise ValueError(
            f"unsupported cluster version {meta.get('version')!r} "
            f"(this build reads version {_CLUSTER_VERSION})"
        )
    _check_index(meta["index"])
    worker_env = capture_env()
    specs = [
        WorkerSpec(
            shard_id=sid,
            directory=str(_shard_dir(directory, sid)),
            index=meta["index"],
            method=meta["method"],
            elsi=dict(meta["elsi"]),
            serve=dict(meta["serve"]),
            env=worker_env,
            recover=True,
            wal=bool(meta["wal"]),
        )
        for sid in range(shard_map.n_shards)
    ]
    return ShardRouter(shard_map, _spawn_all(specs))
