"""Block (page) storage of points sorted by a one-dimensional key.

The map-and-sort paradigm stores points in key order; queries then scan a
contiguous address range.  :class:`BlockStore` materialises that layout:
points are held in key-sorted arrays and grouped into fixed-size blocks of
``B`` points (B = 100 per Section VII-B1).  The store counts block reads so
experiments can report I/O-like metrics alongside wall-clock times.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BlockStore"]


class BlockStore:
    """Key-sorted point storage with fixed-size blocks.

    Parameters
    ----------
    points:
        (n, d) coordinates.
    keys:
        One mapped key per point, stored as float64; the store sorts by
        these.
    ids:
        Optional stable point identifiers (defaults to the pre-sort row
        numbers), used by the update processor's side list.
    block_size:
        Points per block (the paper's B).
    """

    def __init__(
        self,
        points: np.ndarray,
        keys: np.ndarray,
        ids: np.ndarray | None = None,
        block_size: int = 100,
    ) -> None:
        pts = np.asarray(points, dtype=np.float64)
        key_arr = np.asarray(keys, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"expected (n, d) points, got shape {pts.shape}")
        if key_arr.shape != (len(pts),):
            raise ValueError(
                f"need one key per point: {key_arr.shape} vs {len(pts)} points"
            )
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if ids is None:
            ids = np.arange(len(pts), dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (len(pts),):
                raise ValueError("need one id per point")

        order = np.argsort(key_arr, kind="stable")
        self.points = pts[order]
        self.keys = key_arr[order]
        self.ids = ids[order]
        self.block_size = block_size
        self._reads = 0

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The key-sorted columns and the block size (reads are not kept)."""
        return {
            "points": self.points,
            "keys": self.keys,
            "ids": self.ids,
            "block_size": self.block_size,
        }

    @classmethod
    def from_state(cls, state: dict) -> "BlockStore":
        """Adopt :meth:`state_dict` columns as they are: already key-sorted,
        so nothing is re-sorted, copied or cast."""
        store = cls.__new__(cls)
        store.points = state["points"]
        store.keys = state["keys"]
        store.ids = state["ids"]
        store.block_size = state["block_size"]
        store._reads = 0
        return store

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    @property
    def n_blocks(self) -> int:
        return max(1, -(-len(self.keys) // self.block_size)) if len(self.keys) else 0

    @property
    def block_reads(self) -> int:
        """Blocks touched by scans since construction / last reset."""
        return self._reads

    def reset_block_reads(self) -> None:
        self._reads = 0

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def rank_of_key(self, key: float, side: str = "left") -> int:
        """Sorted position of ``key`` (binary search)."""
        return int(np.searchsorted(self.keys, key, side=side))

    def scan(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Points, keys and ids in positions [lo, hi), clipped to bounds.

        Charges block reads for every block the range touches.
        """
        lo = max(0, lo)
        hi = min(len(self.keys), hi)
        if hi <= lo:
            return (
                np.empty((0, self.points.shape[1])),
                np.empty(0, dtype=self.keys.dtype),
                np.empty(0, dtype=np.int64),
            )
        first_block = lo // self.block_size
        last_block = (hi - 1) // self.block_size
        self._reads += last_block - first_block + 1
        return self.points[lo:hi], self.keys[lo:hi], self.ids[lo:hi]

    def charge_block_reads(self, starts: np.ndarray, ends: np.ndarray) -> int:
        """Charge block reads for disjoint half-open ranges without gathering.

        Vectorised accounting equivalent of calling :meth:`scan` once per
        ``[start, end)`` range: each range is charged every block it touches.
        Used by the fused batch kernels, which gather rows directly from the
        sorted arrays instead of materialising per-range slices.  Returns the
        number of reads charged.
        """
        starts = np.clip(np.asarray(starts, dtype=np.int64), 0, len(self.keys))
        ends = np.clip(np.asarray(ends, dtype=np.int64), 0, len(self.keys))
        keep = ends > starts
        starts, ends = starts[keep], ends[keep]
        if len(starts) == 0:
            return 0
        reads = int(
            ((ends - 1) // self.block_size - starts // self.block_size + 1).sum()
        )
        self._reads += reads
        return reads

    def scan_key_range(
        self, key_lo: float, key_hi: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scan all entries with key in [key_lo, key_hi]."""
        lo = self.rank_of_key(key_lo, side="left")
        hi = self.rank_of_key(key_hi, side="right")
        return self.scan(lo, hi)

    def insert(self, point: np.ndarray, key: float, point_id: int = -1) -> int:
        """Insert one point at its sorted key position; returns the position.

        O(n) per insert (array shift) — the in-memory analogue of adding a
        record to a sorted page file, used by the indices' built-in
        insertion procedures (Section IV-B2 / Figure 15).
        """
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.points.shape[1],):
            raise ValueError(
                f"expected a point of dim {self.points.shape[1]}, got {p.shape}"
            )
        key = float(key)
        pos = int(np.searchsorted(self.keys, key, side="right"))
        self.points = np.insert(self.points, pos, p, axis=0)
        self.keys = np.insert(self.keys, pos, key)
        self.ids = np.insert(self.ids, pos, int(point_id))
        return pos

    def block_of(self, position: int) -> int:
        """Block id holding sorted position ``position``."""
        if not 0 <= position < len(self.keys):
            raise IndexError(f"position {position} out of range")
        return position // self.block_size
