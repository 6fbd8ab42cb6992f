"""The sharded serving tier: scatter-gather routing over worker processes.

The keyspace is partitioned into N contiguous Z-order key
ranges (:class:`ShardMap`, rank-quantile boundaries persisted as
``shard_map.json``); each range is served by its own worker process — a
full :class:`~repro.serve.server.IndexServer` with generations, rebuild
worker, snapshots, and WAL under a per-shard directory — and a
:class:`ShardRouter` fans query batches out and folds the answers back
(see docs/serving.md, "Sharding").
"""

from repro.shard.cluster import build_cluster, open_cluster
from repro.shard.errors import ShardError, ShardTimeout, ShardUnavailable
from repro.shard.handle import ShardHandle
from repro.shard.router import ShardRouter
from repro.shard.shardmap import ShardMap
from repro.shard.worker import WorkerSpec, shard_worker_main

__all__ = [
    "ShardError",
    "ShardHandle",
    "ShardMap",
    "ShardRouter",
    "ShardTimeout",
    "ShardUnavailable",
    "WorkerSpec",
    "build_cluster",
    "open_cluster",
    "shard_worker_main",
]
