"""ZM: the Z-order model index (Wang et al., MDM 2019).

Map-and-sort: points map to Morton (Z-curve) codes and are stored in code
order.  Predict-and-scan: a learned CDF (an :class:`~repro.indices.rmi.RMIModel`)
predicts a code's storage address, and a bounded scan completes the lookup.

Window queries are exact: every point inside window ``[lo, hi]`` has a
Morton code within ``[z(lo), z(hi)]``, so scanning that code interval and
filtering by the rectangle cannot miss results.  The scan boundaries are
the corner codes' exact ranks in the sorted key column (``searchsorted``):
corner codes are usually not indexed keys, where the empirical error
bounds guarantee nothing, so a model pass could only hint at the rank the
binary search finds anyway.
"""

from __future__ import annotations

import numpy as np

from repro.indices.base import ModelBuilder
from repro.indices.mapsort import MapAndSortIndex
from repro.spatial.zcurve import split_zranges, zvalues

__all__ = ["ZMIndex"]

#: Stored rows a skipped code gap must hold before a window's Z-interval is
#: cut there: about what one more run costs ``batch_window_refine``.
_MIN_GAP_ROWS = 64

#: Rows the intervals still worth cutting must hold, summed over the batch,
#: for one more splitting round: about what its fixed NumPy calls cost.
_MIN_ROUND_ROWS = 16384


class ZMIndex(MapAndSortIndex):
    """The ZM learned spatial index.

    Parameters
    ----------
    builder:
        Model builder (OG by default; pass ELSI's build processor to get
        the accelerated build).
    bits:
        Morton code resolution per dimension.
    branching:
        Stage-2 fan-out of the RMI (1 = a single model).
    """

    name = "ZM"
    state_params = ("bits", "branching")

    def __init__(
        self,
        builder: ModelBuilder | None = None,
        block_size: int = 100,
        bits: int = 16,
        branching: int = 8,
    ) -> None:
        super().__init__(builder, block_size)
        self.bits = bits
        self.branching = branching

    # ------------------------------------------------------------------
    def map(self, points: np.ndarray) -> np.ndarray:
        """The base index's ``map()``: Morton codes as float64 keys."""
        self._check_built()
        assert self.bounds is not None
        return zvalues(points, self.bounds, self.bits).astype(np.float64)

    def window_plan(self, win_lo: np.ndarray, win_hi: np.ndarray):
        """Each window's corner codes bound one Z-interval, cut into the
        sub-intervals worth scanning on their own (:meth:`_scan_runs`);
        their boundaries are exact ranks from batched ``searchsorted``
        calls over the key column (no model pass, so no
        ``model_invocations`` are charged)."""
        assert self.bounds is not None
        w = len(win_lo)
        z = zvalues(np.vstack([win_lo, win_hi]), self.bounds, self.bits)
        return self._one_run(*self._scan_runs(z[:w], z[w:]))

    def _scan_runs(
        self, zlo: np.ndarray, zhi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank runs ``[lo, hi)`` covering every window's Z-interval, and
        the window each run belongs to.

        ``[zlo, zhi]`` holds every code of the rect but mostly codes outside
        it.  :func:`~repro.spatial.zcurve.split_zranges` cuts a rect's
        interval in two around the codes its top differing bit skips, and
        ``searchsorted`` says how many stored rows those codes hold, so the
        loop is driven by the data, not by a depth or interval budget:

        - an interval is cut only if the gap holds at least
          ``_MIN_GAP_ROWS`` rows (what one more run costs the refinement
          kernel), and only its halves are candidates for the next round;
        - a round runs only while the candidates together hold at least
          ``_MIN_ROUND_ROWS`` rows (what the round's fixed NumPy calls
          cost), so a few small windows are scanned as one interval each.

        Runs stay in Z order within a window and are disjoint in *rank*
        space, since a cut needs at least one row between the two ranks:
        LITMAX and BIGMIN can round to one float64 key (codes above 2**53),
        and a row must not be scanned — and returned — twice.  The integer
        codes are ranked among the keys as float64, the conversion ``map``
        applies.
        """
        keys = self.run.store.keys

        def rank(codes: np.ndarray, side: str) -> np.ndarray:
            return np.searchsorted(keys, codes.astype(np.float64), side=side)

        lo, hi = rank(zlo, "left"), rank(zhi, "right")
        owner = live = np.arange(len(lo))
        if int((hi - lo).sum()) < _MIN_ROUND_ROWS:
            return lo, hi, owner  # not even every interval together: no round
        d = self.run.store.points.shape[1]
        while True:
            rows = hi[live] - lo[live]
            worth = (rows >= _MIN_GAP_ROWS) & (zlo[live] < zhi[live])
            live = live[worth]
            if not len(live) or int(rows[worth].sum()) < _MIN_ROUND_ROWS:
                break
            litmax, bigmin = split_zranges(zlo[live], zhi[live], d)
            r_lit, r_big = rank(litmax, "right"), rank(bigmin, "left")
            # Codes that round to one key give r_big <= r_lit: never a cut.
            cut = r_big - r_lit >= _MIN_GAP_ROWS
            if not cut.any():
                break
            live, litmax, bigmin = live[cut], litmax[cut], bigmin[cut]
            r_lit, r_big = r_lit[cut], r_big[cut]
            # Each cut interval becomes two adjacent entries, low half first;
            # only these halves are candidates for the next round.
            copies = np.ones(len(lo), dtype=np.int64)
            copies[live] = 2
            low = live + np.arange(len(live))
            zlo, zhi, lo, hi, owner = (
                np.repeat(a, copies) for a in (zlo, zhi, lo, hi, owner)
            )
            zhi[low], hi[low] = litmax, r_lit
            zlo[low + 1], lo[low + 1] = bigmin, r_big
            live = (low[:, None] + np.arange(2)).ravel()
        return lo, hi, owner
