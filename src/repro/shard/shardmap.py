"""The shard map: contiguous Z-order key ranges, one per shard.

Following LiLIS (see PAPERS.md), the keyspace is the image of the data
under a space-filling curve — here Morton/Z-order at 16 bits per
dimension (:data:`CURVE`, :data:`BITS`) — and each shard owns one
contiguous code range.  Boundaries are chosen by **rank quantiles** over
the mapped keys of the build data (so shards hold equal point counts, not
equal key-space volume, which matters on skewed data) and then snapped to
positions where adjacent sorted keys differ, so duplicate codes never
straddle a cut: routing by ``searchsorted`` stays consistent with the
partition actually built.

Routing rules (all conservative, never lossy):

- **point** → the single shard whose range contains the point's code;
- **window** → every shard whose range overlaps ``[code(lo), code(hi)]``
  (:meth:`ShardMap.shard_spans`, for a whole batch of windows at once).
  Morton codes are monotone in each coordinate (spreading bits preserves
  order and the per-dimension bit positions are disjoint), so every
  point inside the rect has a code inside that corner interval — shards
  outside it provably hold nothing of interest;
- **kNN** → round one asks the point's home shard, round two widens to
  the shards overlapping the interval of the ball's bounding rect (the
  same :meth:`ShardMap.shard_spans`, over ``q - r`` and ``q + r``).

The map is persisted as ``shard_map.json`` next to the per-shard
directories and reloaded verbatim on cluster reopen — boundaries are part
of the durable state, not recomputed.  The file still names its curve and
bit count; a map that names another one is refused on load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.spatial.rect import Rect
from repro.spatial.zcurve import zvalues

__all__ = ["BITS", "CURVE", "ShardMap"]

#: The curve every shard map keys points by, and its bits per dimension;
#: both are written to ``shard_map.json``.
CURVE = "zorder"
BITS = 16

_MAP_VERSION = 1


class ShardMap:
    """N contiguous curve-code ranges and the routing arithmetic over them.

    ``boundaries`` holds N-1 uint64 codes; shard ``i`` owns the half-open
    code range ``[boundaries[i-1], boundaries[i])`` (with 0 and 2^63
    implied at the ends), so ``searchsorted(boundaries, code,
    side="right")`` is the owning shard.
    """

    def __init__(self, boundaries: np.ndarray, bounds: Rect) -> None:
        self.boundaries = np.asarray(boundaries, dtype=np.uint64)
        if np.any(np.diff(self.boundaries.astype(np.int64)) <= 0):
            raise ValueError("shard boundaries must be strictly increasing")
        self.bounds = bounds

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: np.ndarray, n_shards: int) -> "ShardMap":
        """Rank-quantile boundaries over the mapped keys of ``points``.

        Each cut lands at rank ``i * n / n_shards`` and is then snapped
        forward to the next position where the sorted key changes (so a
        run of equal codes stays whole in one shard).  Raises when the
        data has too few distinct codes to support ``n_shards`` non-empty
        shards — lower ``n_shards``.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError(f"need a non-empty (n, d) array, got shape {pts.shape}")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        bounds = Rect.bounding(pts)
        if n_shards == 1:
            return cls(np.empty(0, dtype=np.uint64), bounds)
        keys = np.sort(zvalues(pts, bounds, bits=BITS))
        n = len(keys)
        if n < n_shards:
            raise ValueError(
                f"cannot cut {n} keys into {n_shards} non-empty shards; "
                "lower n_shards"
            )
        boundaries: list[int] = []
        for i in range(1, n_shards):
            # n >= n_shards guarantees cut >= 1, so shard 0 is non-empty.
            cut = i * n // n_shards
            # Snap forward past any run of equal keys so the boundary key
            # is the *first* key of the next shard, never mid-run.
            while cut < n and keys[cut] == keys[cut - 1]:
                cut += 1
            if cut >= n:
                raise ValueError(
                    f"cannot cut {n} keys ({len(np.unique(keys))} distinct) "
                    f"into {n_shards} non-empty shards; lower n_shards"
                )
            boundaries.append(int(keys[cut]))
        if len(set(boundaries)) != len(boundaries):
            raise ValueError(
                f"duplicate shard boundaries at n_shards={n_shards}: the key "
                "distribution is too concentrated; lower n_shards"
            )
        return cls(np.asarray(boundaries, dtype=np.uint64), bounds)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.boundaries) + 1

    def keys_of(self, points: np.ndarray) -> np.ndarray:
        """Z-order codes of ``points`` (clipped into the map's bounds)."""
        return zvalues(
            np.atleast_2d(np.asarray(points, dtype=np.float64)), self.bounds, bits=BITS
        )

    def shard_of_points(self, points: np.ndarray) -> np.ndarray:
        """Owning shard id per point row."""
        return np.searchsorted(self.boundaries, self.keys_of(points), side="right")

    def shard_spans(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per box ``[lo[i], hi[i]]``, the closed range ``first[i] ..
        last[i]`` of shards that can hold one of its points.

        The corner-code interval ``[code(lo), code(hi)]`` covers every
        point in the box (Morton monotonicity), so the span is the shards
        overlapping it — all ``2 * w`` corners are encoded in one
        :meth:`keys_of` call.  Corners are clipped into the map's bounds
        first, which is what the grid does to them anyway and lets a box
        reach to infinity (a kNN ball of unbounded radius spans every
        shard).
        """
        lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_2d(np.asarray(hi, dtype=np.float64))
        w = len(lo)
        corners = np.clip(
            np.concatenate([lo, hi]), self.bounds.lo_array, self.bounds.hi_array
        )
        spans = np.searchsorted(self.boundaries, self.keys_of(corners), side="right")
        return spans[:w], spans[w:]

    def shards_for_window(self, window: Rect) -> range:
        """Shards a window query must visit (:meth:`shard_spans` of one)."""
        first, last = self.shard_spans(window.lo_array, window.hi_array)
        return range(int(first[0]), int(last[0]) + 1)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": _MAP_VERSION,
            "curve": CURVE,
            "bits": BITS,
            "n_shards": self.n_shards,
            "bounds": {
                "lo": self.bounds.lo_array.tolist(),
                "hi": self.bounds.hi_array.tolist(),
            },
            "boundaries": [int(b) for b in self.boundaries],
        }

    def save(self, path: "str | Path") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        tmp.replace(path)
        return path

    @classmethod
    def from_dict(cls, data: dict) -> "ShardMap":
        if data.get("version") != _MAP_VERSION:
            raise ValueError(
                f"unsupported shard map version {data.get('version')!r} "
                f"(this build reads version {_MAP_VERSION})"
            )
        if data["curve"] != CURVE or data["bits"] != BITS:
            raise ValueError(
                f"shard map keys by curve {data['curve']!r} at {data['bits']!r} "
                f"bits; this build routes by {CURVE!r} at {BITS} bits"
            )
        bounds = Rect.from_arrays(
            np.asarray(data["bounds"]["lo"], dtype=np.float64),
            np.asarray(data["bounds"]["hi"], dtype=np.float64),
        )
        smap = cls(np.asarray(data["boundaries"], dtype=np.uint64), bounds)
        if smap.n_shards != int(data["n_shards"]):
            raise ValueError(
                f"shard map is inconsistent: {len(smap.boundaries)} boundaries "
                f"but n_shards={data['n_shards']}"
            )
        return smap

    @classmethod
    def load(cls, path: "str | Path") -> "ShardMap":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"ShardMap(n_shards={self.n_shards})"
