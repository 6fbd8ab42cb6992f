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
    block_size:
        Points per block (the paper's B).
    """

    def __init__(
        self,
        points: np.ndarray,
        keys: np.ndarray,
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
        order = np.argsort(key_arr, kind="stable")
        self.points = pts[order]
        self.keys = key_arr[order]
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
            "block_size": self.block_size,
        }

    @classmethod
    def from_state(cls, state: dict) -> "BlockStore":
        """Adopt :meth:`state_dict` columns as they are: already key-sorted,
        so nothing is re-sorted, copied or cast.  An ``ids`` column, which
        older snapshots carry, is ignored."""
        store = cls.__new__(cls)
        store.points = state["points"]
        store.keys = state["keys"]
        store.block_size = state["block_size"]
        store._reads = 0
        return store

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.keys)

    @property
    def block_reads(self) -> int:
        """Blocks touched by scans since construction / last reset."""
        return self._reads

    def reset_block_reads(self) -> None:
        self._reads = 0

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def scan(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Points and keys in positions [lo, hi), clipped to bounds.

        Charges block reads for every block the range touches.
        """
        lo = max(0, lo)
        hi = min(len(self.keys), hi)
        if hi <= lo:
            return np.empty((0, self.points.shape[1])), np.empty(0, dtype=self.keys.dtype)
        first_block = lo // self.block_size
        last_block = (hi - 1) // self.block_size
        self._reads += last_block - first_block + 1
        return self.points[lo:hi], self.keys[lo:hi]

    def charge_block_reads(self, starts: np.ndarray, ends: np.ndarray) -> int:
        """Charge block reads for disjoint half-open ranges without gathering.

        Vectorised accounting equivalent of calling :meth:`scan` once per
        ``[start, end)`` range: each range is charged every block it touches.
        Used by the fused batch kernels, which gather rows directly from the
        sorted arrays instead of materialising per-range slices.  Returns the
        number of reads charged.
        """
        # Clipped to the store (``np.minimum`` / ``np.maximum``: ``np.clip``
        # costs several µs of Python wrappers on a short batch).
        n = len(self.keys)
        starts = np.minimum(np.maximum(np.asarray(starts, dtype=np.int64), 0), n)
        ends = np.minimum(np.maximum(np.asarray(ends, dtype=np.int64), 0), n)
        keep = ends > starts
        starts, ends = starts[keep], ends[keep]
        if len(starts) == 0:
            return 0
        reads = int(
            ((ends - 1) // self.block_size - starts // self.block_size + 1).sum()
        )
        self._reads += reads
        return reads

    def insert(self, point: np.ndarray, key: float) -> int:
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
        return pos
