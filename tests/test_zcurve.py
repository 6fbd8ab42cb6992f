"""Unit tests for Morton (Z-order) codes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ELSIConfig, ELSIModelBuilder
from repro.indices import ZMIndex
from repro.spatial.rect import Rect
from repro.spatial.zcurve import (
    grid_coordinates,
    morton_decode,
    morton_encode,
    split_zranges,
    zvalues,
)


class TestEncodeDecode:
    def test_known_2d_codes(self):
        coords = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [3, 3]])
        codes = morton_encode(coords, bits=2)
        np.testing.assert_array_equal(codes, [0, 1, 2, 3, 4, 15])

    def test_round_trip_2d(self):
        rng = np.random.default_rng(0)
        coords = rng.integers(0, 2**16, (500, 2))
        decoded = morton_decode(morton_encode(coords), d=2)
        np.testing.assert_array_equal(decoded, coords.astype(np.uint64))

    def test_round_trip_3d(self):
        rng = np.random.default_rng(1)
        coords = rng.integers(0, 2**10, (200, 3))
        decoded = morton_decode(morton_encode(coords, bits=10), d=3, bits=10)
        np.testing.assert_array_equal(decoded, coords.astype(np.uint64))

    def test_bijective_on_small_grid(self):
        grid = np.array(list(itertools.product(range(8), range(8))))
        codes = morton_encode(grid, bits=3)
        assert sorted(codes.tolist()) == list(range(64))

    def test_empty_input(self):
        assert len(morton_encode(np.empty((0, 2), dtype=int))) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            morton_encode(np.array([[2**16, 0]]), bits=16)
        with pytest.raises(ValueError):
            morton_encode(np.array([[-1, 0]]))

    def test_too_many_bits_rejected(self):
        with pytest.raises(ValueError):
            morton_encode(np.array([[0, 0]]), bits=32)

    def test_monotone_along_axes(self):
        # Fixing one coordinate, the code grows with the other.
        ys = morton_encode(np.column_stack([np.zeros(8, int), np.arange(8)]), bits=3)
        assert np.all(np.diff(ys.astype(np.int64)) > 0)


def _bit_loop_encode(coords: np.ndarray, bits: int) -> np.ndarray:
    """The encoder `morton_encode` replaced, kept as the reference: one
    shift-mask-shift-or per bit per dimension."""
    arr = np.asarray(coords).astype(np.uint64)
    n, d = arr.shape
    codes = np.zeros(n, dtype=np.uint64)
    for bit in range(bits):
        for dim in range(d):
            codes |= ((arr[:, dim] >> np.uint64(bit)) & np.uint64(1)) << np.uint64(
                bit * d + dim
            )
    return codes


def _byte_table_encode(coords: np.ndarray, bits: int) -> np.ndarray:
    """The encoder before the 16-bit table, kept as the oracle: each
    coordinate spread one byte at a time through a 256-entry table, in C
    order whatever the input's layout."""
    arr = np.asarray(coords)
    n, d = arr.shape
    table = np.array(
        [
            sum(((v >> i) & 1) << (i * d) for i in range(8)) & (2**64 - 1)
            for v in range(256)
        ],
        dtype=np.uint64,
    )
    octets = arr.astype("<u8", order="C").view(np.uint8).reshape(n, d, 8)
    codes = np.zeros(n, dtype=np.uint64)
    for j in range((bits + 7) // 8):
        for dim in range(d):
            part = table[octets[:, dim, j]]
            part <<= np.uint64(8 * j * d + dim)
            codes |= part
    return codes


@st.composite
def _grids(draw):
    """(coords, bits) for d in 1..5 and any bits with d * bits <= 63;
    corner cells (0 and 2**bits - 1) are drawn often."""
    d = draw(st.integers(1, 5))
    bits = draw(st.integers(1, 63 // d))
    top = 2**bits - 1
    cell = st.one_of(st.integers(0, top), st.sampled_from([0, top]))
    rows = draw(
        st.lists(st.lists(cell, min_size=d, max_size=d), min_size=1, max_size=40)
    )
    return np.array(rows, dtype=np.int64), bits


class TestTableDrivenEncode:
    @given(_grids())
    @settings(max_examples=300, deadline=None)
    def test_equals_bit_loop_and_round_trips(self, grid):
        coords, bits = grid
        codes = morton_encode(coords, bits=bits)
        assert codes.dtype == np.uint64
        np.testing.assert_array_equal(codes, _bit_loop_encode(coords, bits))
        np.testing.assert_array_equal(
            morton_decode(codes, d=coords.shape[1], bits=bits),
            coords.astype(np.uint64),
        )

    @pytest.mark.parametrize("d", range(1, 6))
    def test_every_bit_width_at_the_grid_corners(self, d):
        # Every bits (not only multiples of 8 or 16) with d * bits <= 63,
        # against the bit loop and the byte-table encoder.
        rng = np.random.default_rng(d)
        for bits in range(1, 63 // d + 1):
            top = 2**bits - 1
            coords = np.concatenate([
                np.array(list(itertools.product((0, 1, top // 2, top), repeat=d))),
                rng.integers(0, top, (32, d), endpoint=True),
            ])
            codes = morton_encode(coords, bits=bits)
            np.testing.assert_array_equal(codes, _bit_loop_encode(coords, bits))
            np.testing.assert_array_equal(codes, _byte_table_encode(coords, bits))

    def test_unsigned_and_small_integer_inputs(self):
        coords = np.array([[255, 0], [7, 200]], dtype=np.uint8)
        np.testing.assert_array_equal(
            morton_encode(coords, bits=8), _bit_loop_encode(coords, 8)
        )

    @given(_grids())
    @settings(max_examples=100, deadline=None)
    def test_any_memory_layout(self, grid):
        # np.vstack([x, y]).T, df[["x", "y"]].to_numpy() and column slices
        # are not C-contiguous; the codes must not depend on the layout.
        coords, bits = grid
        expected = _bit_loop_encode(coords, bits)
        wide = np.repeat(coords, 2, axis=1)
        for laid_out in (
            np.asfortranarray(coords),
            np.ascontiguousarray(coords.T).T,
            wide[:, ::2],
            np.repeat(coords, 2, axis=0)[::2],
        ):
            np.testing.assert_array_equal(morton_encode(laid_out, bits=bits), expected)

    def test_fortran_ordered_points_through_zvalues_and_zm(self):
        rng = np.random.default_rng(5)
        x, y = rng.random(500), rng.random(500)
        points_f = np.vstack([x, y]).T
        assert not points_f.flags.c_contiguous
        points_c = np.ascontiguousarray(points_f)
        bounds = Rect.unit(2)
        np.testing.assert_array_equal(
            zvalues(points_f, bounds), zvalues(points_c, bounds)
        )
        builder = ELSIModelBuilder(ELSIConfig(train_epochs=20), method="SP")
        index = ZMIndex(builder=builder).build(points_f)
        assert index.point_queries(points_f).all()

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=50, deadline=None)
    def test_range_and_shape_errors(self, d, data):
        bits = data.draw(st.integers(1, 63 // d))
        good = np.zeros((2, d), dtype=np.int64)
        # 2**63 (d = 1, bits = 63) only fits an unsigned array.  The 16-bit
        # table would wrap a negative cell round to its end and mask the
        # high bits off one past the grid: refused, not encoded.
        for bad_cell, dtype in (
            (-1, np.int64),
            (-(2**16), np.int64),
            (2**bits, np.uint64),
            (2**bits + 2**16, np.uint64),
        ):
            bad = good.astype(dtype)
            bad[1, d - 1] = bad_cell
            with pytest.raises(ValueError, match="must lie in"):
                morton_encode(bad, bits=bits)
        with pytest.raises(ValueError, match=r"\(n, d\) array"):
            morton_encode(good[0], bits=bits)
        with pytest.raises(ValueError, match="d \\* bits"):
            morton_encode(good, bits=63 // d + 1)
        with pytest.raises(ValueError, match="bits must be"):
            morton_encode(good, bits=0)


_INT_TYPES = (
    np.uint8, np.int8, np.uint16, np.int16, np.uint32, np.int32, np.uint64, np.int64
)


@st.composite
def _encoder_inputs(draw):
    """(coords, bits, layout): d in 1..5, any ``bits`` with ``d * bits <=
    63`` (above 16 the 16-bit table takes several chunks), any integer
    dtype that holds the cells, values at the chunk edges (2**k - 1, 2**k)
    drawn often, and the array laid out C-ordered, F-ordered or strided."""
    d = draw(st.integers(1, 5))
    bits = draw(st.integers(1, 63 // d))
    dtype = draw(st.sampled_from([t for t in _INT_TYPES if np.iinfo(t).max >= 2**bits - 1]))
    top = 2**bits - 1
    edge = st.integers(0, bits).flatmap(
        lambda k: st.sampled_from([max(2**k - 1, 0), min(2**k, top)])
    )
    cell = st.one_of(st.integers(0, top), edge)
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=1, max_size=30))
    coords = np.array(rows, dtype=dtype)
    layout = draw(st.sampled_from(["C", "F", "columns", "rows"]))
    if layout == "F":
        coords = np.asfortranarray(coords)
    elif layout == "columns":
        coords = np.repeat(coords, 2, axis=1)[:, ::2]
    elif layout == "rows":
        coords = np.repeat(coords, 3, axis=0)[1::3]
    return coords, bits


class TestSixteenBitTable:
    """The 16-bit spread table against the byte-table encoder it replaced."""

    @given(_encoder_inputs())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_byte_table_encoder(self, inputs):
        coords, bits = inputs
        codes = morton_encode(coords, bits=bits)
        assert codes.dtype == np.uint64
        np.testing.assert_array_equal(codes, _byte_table_encode(coords, bits))

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_zvalues_is_the_checked_encode_of_the_grid(self, d, data):
        """``zvalues`` skips the range check, which ``grid_coordinates``
        makes redundant at every ``bits``: points inside, outside, on a
        degenerate axis, huge and non-finite all get the code the checked
        path gives."""
        bits = data.draw(st.integers(1, 63 // d))
        lo = data.draw(st.lists(st.floats(-5, 5), min_size=d, max_size=d))
        extent = data.draw(
            st.lists(st.sampled_from([0.0, 1e-6, 1.0, 3.5]), min_size=d, max_size=d)
        )
        bounds = Rect(tuple(lo), tuple(a + e for a, e in zip(lo, extent)))
        coord = st.one_of(
            st.floats(-10, 10),
            st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300]),
        )
        rows = data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), max_size=20))
        points = np.array(rows, dtype=np.float64).reshape(-1, d)
        with np.errstate(invalid="ignore", over="ignore"):
            cells = grid_coordinates(points, bounds, bits)
            want = morton_encode(cells, bits=bits)
            np.testing.assert_array_equal(zvalues(points, bounds, bits), want)


@st.composite
def _small_rects(draw):
    """(lo, hi, bits): a grid rect of at most 4 cells per axis, d in 1..4,
    any ``bits`` with ``d * bits <= 63``.  It is anchored at the origin, at
    the far corner (top code bit set: bit 62 when ``d * bits == 63``) or
    around a power-of-two plane, where corner codes differ in a high bit."""
    d = draw(st.integers(1, 4))
    bits = draw(st.integers(1, 63 // d))
    top = 2**bits - 1
    lo, hi = [], []
    for _ in range(d):
        extent = draw(st.integers(0, min(3, top)))
        plane = 2 ** draw(st.integers(0, bits))
        anchor = draw(
            st.one_of(
                st.integers(0, top),
                st.sampled_from([0, top, plane - 1, plane - 2, plane])
            )
        )
        start = min(max(anchor - draw(st.integers(0, extent)), 0), top - extent)
        lo.append(start)
        hi.append(start + extent)
    return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64), bits


class TestSplitZRanges:
    @given(_small_rects())
    @settings(max_examples=400, deadline=None)
    def test_intervals_cover_the_rect_in_ascending_disjoint_order(self, rect):
        lo, hi, bits = rect
        d = len(lo)
        # Python ints: ``hi + 1`` overflows int64 at the far corner of a
        # 63-bit axis and the range came out empty.
        axes = (range(a, b + 1) for a, b in zip(lo.tolist(), hi.tolist()))
        cells = np.array(list(itertools.product(*axes)))
        cell_codes = morton_encode(cells, bits=bits)
        # Split every interval that still spans more than one code, in
        # place (low half first), for a few rounds.
        zlo = morton_encode(lo[None, :], bits=bits)
        zhi = morton_encode(hi[None, :], bits=bits)
        for _ in range(4):
            wide = np.flatnonzero(zlo < zhi)
            if not len(wide):
                break
            litmax, bigmin = split_zranges(zlo[wide], zhi[wide], d)
            assert litmax.dtype == bigmin.dtype == np.uint64
            # (LITMAX, BIGMIN) are the codes of the two corners on either
            # side of the cutting plane, worked out in coordinates here.
            for i, lit, big in zip(wide, litmax.tolist(), bigmin.tolist()):
                c_lo = morton_decode(zlo[i : i + 1], d, bits)[0].astype(np.int64)
                c_hi = morton_decode(zhi[i : i + 1], d, bits)[0].astype(np.int64)
                bit = (int(zlo[i]) ^ int(zhi[i])).bit_length() - 1
                axis, level = bit % d, bit // d
                plane = (int(c_hi[axis]) >> level) << level
                below, above = c_hi.copy(), c_lo.copy()
                below[axis], above[axis] = plane - 1, plane
                assert lit == int(morton_encode(below[None, :], bits=bits)[0])
                assert big == int(morton_encode(above[None, :], bits=bits)[0])
            copies = np.ones(len(zlo), dtype=np.int64)
            copies[wide] = 2
            low = wide + np.arange(len(wide))
            zlo, zhi = np.repeat(zlo, copies), np.repeat(zhi, copies)
            zhi[low], zlo[low + 1] = litmax, bigmin
        assert np.all(zlo <= zhi)
        assert np.all(zhi[:-1] < zlo[1:])  # ascending and disjoint
        held = (cell_codes[:, None] >= zlo) & (cell_codes[:, None] <= zhi)
        assert held.any(axis=1).all()  # every cell of the rect is kept
        # Tight: every interval starts and ends on a cell of the rect.
        assert np.isin(zlo, cell_codes).all() and np.isin(zhi, cell_codes).all()

    @pytest.mark.parametrize("d, bits", [(1, 63), (3, 21), (2, 31), (4, 15)])
    def test_codes_beyond_float64_precision(self, d, bits):
        # Corners whose codes agree in the top bits and differ only in the
        # lowest 3 * d: where those lie under a float64's 53-bit mantissa,
        # it cannot tell the two codes apart.
        top = 2**bits - 1
        lo = np.full((1, d), top - 5, dtype=np.int64)
        hi = np.full((1, d), top, dtype=np.int64)
        zlo, zhi = morton_encode(lo, bits=bits), morton_encode(hi, bits=bits)
        assert int(zhi[0]) >> (d * bits - 1) == 1
        if d * bits - 53 >= 3 * d:
            assert float(zlo[0]) == float(zhi[0])
        litmax, bigmin = split_zranges(zlo, zhi, d)
        # top - 5 = ...11010 and top = ...11111 first differ in bit 2 of
        # the last axis: the plane is at coordinate top - 3.
        below, above = hi.copy(), lo.copy()
        below[0, d - 1], above[0, d - 1] = top - 4, top - 3
        assert litmax[0] == morton_encode(below, bits=bits)[0]
        assert bigmin[0] == morton_encode(above, bits=bits)[0]
        assert zlo[0] < litmax[0] < bigmin[0] < zhi[0]


class TestGridScaling:
    def test_corners(self):
        bounds = Rect.unit(2)
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        cells = grid_coordinates(pts, bounds, bits=4)
        np.testing.assert_array_equal(cells[0], [0, 0])
        np.testing.assert_array_equal(cells[1], [15, 15])

    def test_clipping_outside_bounds(self):
        bounds = Rect.unit(2)
        pts = np.array([[-1.0, 2.0]])
        cells = grid_coordinates(pts, bounds, bits=4)
        np.testing.assert_array_equal(cells[0], [0, 15])

    @pytest.mark.parametrize("bits", range(54, 64))
    def test_upper_bound_past_53_bits(self, bits):
        """In 1-D a cell can need more bits than a float64 holds: a point
        on the upper bound, or past it, is the top cell ``2**bits - 1``
        (which rounds up to ``2**bits`` as a float), and its code is that
        cell; the float just below 1 keeps its own cell."""
        bounds = Rect((0.0,), (1.0,))
        below = np.nextafter(1.0, 0.0)
        pts = np.array([[1.0], [5.0], [np.inf], [below], [0.0], [np.nan]])
        top = 2**bits - 1
        want = [top, top, top, int(below * 2.0**bits), 0, 0]
        cells = grid_coordinates(pts, bounds, bits)
        assert cells.dtype == np.int64 and cells[:, 0].tolist() == want
        assert zvalues(pts, bounds, bits).tolist() == want
        assert morton_encode(cells, bits=bits).tolist() == want

    def test_degenerate_axis(self):
        bounds = Rect((0.0, 0.5), (1.0, 0.5))  # zero extent in y
        pts = np.array([[0.5, 0.5]])
        cells = grid_coordinates(pts, bounds, bits=4)
        assert cells[0][1] == 0

    def test_zvalues_window_containment(self):
        """The ZM window-query invariant: points in a rect have z-values
        within the z-values of the rect's corners."""
        rng = np.random.default_rng(2)
        pts = rng.random((2_000, 2))
        bounds = Rect.unit(2)
        window = Rect((0.3, 0.4), (0.6, 0.7))
        inside = pts[window.contains_points(pts)]
        z_inside = zvalues(inside, bounds)
        corners = zvalues(np.array([window.lo, window.hi]), bounds)
        assert np.all(z_inside >= corners[0])
        assert np.all(z_inside <= corners[1])
