"""Synthetic stand-ins for the paper's four real data sets.

The real traces (OpenStreetMap extracts, TPC-H lineitem columns, NYC taxi
pickups) are not available offline.  Each generator below reproduces the
distributional properties that the paper's experiments actually exercise —
spatial skew, clustering structure, and axis discreteness — so the relative
behaviour of the indices and build methods is preserved (DESIGN.md §1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["nyc_like", "osm_like", "tpch_like"]

#: TPC-H lineitem's quantity range (1..50) and shipdate span in days.
TPCH_QUANTITIES = 50
TPCH_DAYS = 2526


def osm_like(n: int, seed: int = 0, n_hubs: int = 40) -> np.ndarray:
    """OpenStreetMap-style points: multi-scale clusters along linear features.

    OSM node density follows settlements and road networks: dense urban
    hubs, elongated corridors between them, and sparse rural noise.  We mix
    (i) Gaussian hubs with Zipf-distributed weights, (ii) points scattered
    along random hub-to-hub segments, and (iii) a thin uniform background.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    hubs = rng.random((n_hubs, 2))
    weights = 1.0 / np.arange(1, n_hubs + 1) ** 1.1
    weights /= weights.sum()

    n_hub_pts = int(n * 0.6)
    n_road_pts = int(n * 0.3)
    n_noise = n - n_hub_pts - n_road_pts

    assignment = rng.choice(n_hubs, size=n_hub_pts, p=weights)
    scales = rng.uniform(0.004, 0.03, size=n_hubs)
    hub_pts = hubs[assignment] + rng.normal(0.0, 1.0, (n_hub_pts, 2)) * scales[
        assignment
    ][:, None]

    # Corridors: sample t in [0,1] along random hub pairs with small jitter.
    a = hubs[rng.choice(n_hubs, size=n_road_pts, p=weights)]
    b = hubs[rng.choice(n_hubs, size=n_road_pts, p=weights)]
    t = rng.random((n_road_pts, 1))
    road_pts = a + t * (b - a) + rng.normal(0.0, 0.002, (n_road_pts, 2))

    noise = rng.random((n_noise, 2))
    pts = np.vstack([hub_pts, road_pts, noise])
    rng.shuffle(pts)
    return np.clip(pts, 0.0, 1.0)


def tpch_like(n: int, seed: int = 0) -> np.ndarray:
    """TPC-H lineitem (quantity, shipdate): an integer lattice distribution.

    Quantity is uniform on 1..50 and shipdate near-uniform over ~7 years of
    days in the benchmark; both axes are *discrete*, so points pile up on a
    lattice — the property that distinguishes TPC-H from the map data in
    Figures 8–14.  Coordinates are normalised to [0, 1].
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    quantity = rng.integers(1, TPCH_QUANTITIES + 1, size=n)
    # Shipdate ramps up/down at the date-range edges like the benchmark.
    days = rng.integers(0, TPCH_DAYS, size=n)
    x = (quantity - 1) / (TPCH_QUANTITIES - 1)
    y = days / (TPCH_DAYS - 1)
    return np.column_stack([x, y]).astype(np.float64)


def nyc_like(n: int, seed: int = 0) -> np.ndarray:
    """NYC yellow-taxi pickups: extreme density skew on a street grid.

    The vast majority of pickups concentrate in Manhattan with a street-grid
    micro-structure; secondary masses sit at the airports, and a light tail
    spreads over the outer boroughs.  This generator reproduces that
    three-scale skew, which is what makes Grid's build slow in Figure 8.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    n_core = int(n * 0.75)
    n_airport = int(n * 0.1)
    n_tail = n - n_core - n_airport

    # Manhattan: a narrow rotated strip with avenue/street quantisation.
    t = rng.random(n_core)  # along the island
    u = rng.normal(0.0, 0.015, n_core)  # across
    # Quantise to a street grid, then jitter within a block.
    t = np.round(t * 200) / 200 + rng.normal(0.0, 0.001, n_core)
    u = np.round(u * 400) / 400 + rng.normal(0.0, 0.0005, n_core)
    angle = np.deg2rad(29.0)  # Manhattan's grid offset from north
    cx, cy = 0.45, 0.55
    x = cx + u * np.cos(angle) - (t - 0.5) * 0.35 * np.sin(angle)
    y = cy + u * np.sin(angle) + (t - 0.5) * 0.35 * np.cos(angle)
    core = np.column_stack([x, y])

    airports = np.array([[0.75, 0.35], [0.85, 0.45]])
    which = rng.integers(0, 2, size=n_airport)
    airport_pts = airports[which] + rng.normal(0.0, 0.01, (n_airport, 2))

    tail = rng.normal([0.5, 0.5], 0.2, (n_tail, 2))
    pts = np.vstack([core, airport_pts, tail])
    rng.shuffle(pts)
    return np.clip(pts, 0.0, 1.0)
