"""Morton (Z-order) space-filling curve codes in d dimensions.

The ZM index (Wang et al., MDM 2019) sorts points by their Z-values and
learns the rank function; RSMI uses SFC orderings for its recursive
partitions.  This module provides vectorised encoding/decoding between
integer grid coordinates and Morton codes, plus scaling helpers from
continuous coordinates inside a bounding :class:`~repro.spatial.rect.Rect`.

Codes use ``d * bits`` bits and are returned as ``uint64``; the default
``bits=16`` in 2-D leaves ample headroom while keeping a 2^16 grid per axis
(the paper's data sets are fractions of a unit square, so 16 bits resolve
~1.5e-5 of the space per cell).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.spatial.rect import Rect

__all__ = [
    "grid_coordinates",
    "morton_decode",
    "morton_encode",
    "split_zranges",
    "zvalues",
]


def _check_args(d: int, bits: int) -> None:
    if d < 1:
        raise ValueError(f"dimensionality must be >= 1, got {d}")
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if d * bits > 63:
        raise ValueError(f"d * bits must be <= 63 to fit uint64, got {d * bits}")


@lru_cache(maxsize=None)
def _spread_table(d: int) -> np.ndarray:
    """``table[v]``: the 8 bits of byte ``v`` moved to positions 0, d, 2d, ...

    One read-only 256-entry table per dimensionality (d <= 63, so the cache
    is bounded).  Bits pushed past position 63 are dropped: they belong to
    byte values no coordinate below ``2**bits`` with ``d * bits <= 63`` has.
    """
    table = np.array(
        [
            sum(((v >> i) & 1) << (i * d) for i in range(8)) & (2**64 - 1)
            for v in range(256)
        ],
        dtype=np.uint64,
    )
    table.flags.writeable = False
    return table


def morton_encode(coords: np.ndarray, bits: int = 16) -> np.ndarray:
    """Interleave integer grid coordinates into Morton codes.

    Each coordinate is spread one byte at a time through a 256-entry
    table (:func:`_spread_table`), so the work is one gather, one shift and
    one OR per byte per dimension whatever ``bits`` is.

    Parameters
    ----------
    coords:
        Integer array of shape (n, d) with values in ``[0, 2**bits)``.
    bits:
        Bits per dimension.

    Returns
    -------
    uint64 array of n Morton codes.  Dimension 0 occupies the least
    significant bit of each ``d``-bit group, so in 2-D the code is the
    classic ``...y1x1y0x0`` interleaving.
    """
    arr = np.asarray(coords)
    if arr.ndim != 2:
        raise ValueError(f"expected an (n, d) array, got shape {arr.shape}")
    n, d = arr.shape
    _check_args(d, bits)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if arr.min() < 0 or arr.max() >= 2**bits:
        raise ValueError(f"coordinates must lie in [0, 2**{bits})")
    table = _spread_table(d)
    # Little-endian bytes: octets[:, dim, j] is bits 8j .. 8j+7 of a coordinate.
    # C order whatever the input's layout (F-ordered, transposed, strided):
    # the byte view needs a contiguous last axis.
    octets = arr.astype("<u8", order="C").view(np.uint8).reshape(n, d, 8)
    codes = np.zeros(n, dtype=np.uint64)
    for j in range((bits + 7) // 8):
        for dim in range(d):
            part = table[octets[:, dim, j]]
            part <<= np.uint64(8 * j * d + dim)
            codes |= part
    return codes


@lru_cache(maxsize=None)
def _axis_masks(d: int) -> np.ndarray:
    """``masks[dim]``: every bit position of a code that dimension ``dim``
    owns (``dim``, ``dim + d``, ... below 64).  Read-only, one per ``d``."""
    masks = np.array(
        [sum(1 << pos for pos in range(dim, 64, d)) for dim in range(d)],
        dtype=np.uint64,
    )
    masks.flags.writeable = False
    return masks


def split_zranges(
    zlo: np.ndarray, zhi: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split grid rects at their top differing code bit: ``(LITMAX, BIGMIN)``.

    ``zlo[i] < zhi[i]`` are the Morton codes of rect ``i``'s low and high
    corners (``d`` dimensions, any ``bits`` with ``d * bits <= 63``).  The
    most significant bit in which they differ belongs to one axis; the
    plane where that coordinate bit turns from 0 to 1 cuts the rect in two,
    and every cell of the rect has its code in ``[zlo, LITMAX]`` (the half
    below the plane) or ``[BIGMIN, zhi]`` (the half above) — the codes in
    between belong to cells outside the rect (Tropf & Herzog, 1981).
    LITMAX is the low half's high corner — ``zhi`` with the split axis set
    to ``0111...`` from that bit down — and BIGMIN the high half's low
    corner, ``zlo`` with ``1000...`` there; all other bits stay, so the two
    are a few mask operations on the codes, not a re-encoding.  Both halves
    are rects again and can be split further.

    Integer arithmetic throughout: the top bit is isolated by smearing
    (codes above 2**53 have no exact float64 logarithm).
    """
    zlo = np.asarray(zlo, dtype=np.uint64)
    zhi = np.asarray(zhi, dtype=np.uint64)
    smear = zlo ^ zhi
    for shift in (1, 2, 4, 8, 16, 32):
        smear |= smear >> np.uint64(shift)
    below = smear >> np.uint64(1)  # every bit under the top differing one
    top = smear ^ below  # the top differing bit alone
    masks = _axis_masks(d)
    axis = masks[np.argmax((top[:, None] & masks) != 0, axis=1)]
    axis &= below  # the split axis' bits under ``top``
    return (zhi ^ top) | axis, (zlo | top) & ~axis


def morton_decode(codes: np.ndarray, d: int, bits: int = 16) -> np.ndarray:
    """Inverse of :func:`morton_encode`; returns an (n, d) uint64 array."""
    _check_args(d, bits)
    arr = np.asarray(codes, dtype=np.uint64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D array of codes, got shape {arr.shape}")
    out = np.zeros((len(arr), d), dtype=np.uint64)
    for bit in range(bits):
        for dim in range(d):
            out[:, dim] |= ((arr >> np.uint64(bit * d + dim)) & np.uint64(1)) << np.uint64(bit)
    return out


def grid_coordinates(points: np.ndarray, bounds: Rect, bits: int = 16) -> np.ndarray:
    """Scale continuous points in ``bounds`` to the integer grid ``[0, 2**bits)``.

    Points exactly on the upper boundary map to the last cell; points
    outside ``bounds`` are clipped (queries may extend past the data MBR).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected an (n, d) array, got shape {pts.shape}")
    if pts.shape[1] != bounds.ndim:
        raise ValueError(
            f"points are {pts.shape[1]}-D but bounds are {bounds.ndim}-D"
        )
    extent = bounds.extents
    extent[extent == 0.0] = 1.0  # degenerate axis: everything maps to cell 0
    scaled = (pts - bounds.lo_array) / extent
    cells = np.floor(scaled * (2**bits)).astype(np.int64)
    return np.clip(cells, 0, 2**bits - 1)


def zvalues(
    points: np.ndarray,
    bounds: Rect,
    bits: int = 16,
    dtype: np.dtype | str | None = None,
) -> np.ndarray:
    """Morton codes of continuous points: scale to the grid, then interleave.

    ``dtype`` casts the uint64 codes to a floating key dtype in one step
    (round-to-nearest, hence monotone) — the cast the map-and-sort indices
    apply before keying their stores.  float32 resolves ~2^24 distinct
    codes; collisions only widen scan ranges (bounds are re-measured over
    the cast keys), never lose points.
    """
    codes = morton_encode(grid_coordinates(points, bounds, bits), bits=bits)
    if dtype is None:
        return codes
    return codes.astype(np.dtype(dtype))
