"""Named registry of the paper's six evaluation data sets, cardinality-scaled.

The paper's sets hold 100–180 M points; experiments here default to much
smaller cardinalities (the ``n`` argument) while keeping the distributional
shape.  ``load_dataset("OSM1", n=50_000)`` etc. is used by every benchmark
so paper figures can name data sets exactly as the paper does.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.generators import skewed, uniform
from repro.data.real_like import nyc_like, osm_like, tpch_like

__all__ = ["DATASETS", "load_dataset"]

# Name -> generator(n, seed).  Seeds are offset per set so "OSM1" and "OSM2"
# differ the way the paper's North/South America extracts do (OSM2 denser,
# fewer megacities — modelled by a different hub count).
DATASETS: dict[str, Callable[[int, int], np.ndarray]] = {
    "Uniform": lambda n, seed: uniform(n, seed=seed),
    "Skewed": lambda n, seed: skewed(n, seed=seed),
    "OSM1": lambda n, seed: osm_like(n, seed=seed, n_hubs=40),
    "OSM2": lambda n, seed: osm_like(n, seed=seed + 1, n_hubs=15),
    "TPC-H": lambda n, seed: tpch_like(n, seed=seed),
    "NYC": lambda n, seed: nyc_like(n, seed=seed),
}


def load_dataset(name: str, n: int, seed: int = 0) -> np.ndarray:
    """Generate the named data set at cardinality ``n``.

    Raises ``KeyError`` with the available names for unknown data sets.
    """
    try:
        generator = DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown data set {name!r}; available: {sorted(DATASETS)}"
        ) from None
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return generator(n, seed)
