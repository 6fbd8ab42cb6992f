"""Learned spatial indices (the paper's base indices).

Every index here satisfies ELSI's applicability conditions (Section III):

1. *Map-and-sort*: points are mapped to one-dimensional keys and stored in
   key order (:class:`repro.storage.blocks.BlockStore`).
2. *Predict-and-scan*: a point query invokes the index model once and scans
   ``[M(q) - err_l, M(q) + err_u]``.

The seam where ELSI plugs in is :class:`repro.indices.base.ModelBuilder`:
each index builds its model(s) through a builder, and ELSI substitutes its
build processor for the default original-data (OG) builder.

A key-sorted store with the model over it is one
:class:`repro.indices.run.KeyedRun`, in every index.  An index plans a
query — which rows of which run to scan (``point_plan`` / ``window_plan``)
— and :class:`repro.indices.base.LearnedSpatialIndex` scans them, once for
all four.  ZM, ML-Index and LISA keep their points in one run and differ
only in the mapping: they supply ``map()``, the mapping's fit/state and
``window_plan``, and share the rest
(:class:`repro.indices.mapsort.MapAndSortIndex`).  RSMI has a run per
leaf.

- :mod:`repro.indices.zm` — ZM: Z-curve keys + learned CDF model,
- :mod:`repro.indices.ml_index` — ML-Index: iDistance keys (exact queries),
- :mod:`repro.indices.rsmi` — RSMI: recursive SFC partitions, model per node,
- :mod:`repro.indices.lisa` — LISA: grid-mapped keys + shard prediction.

An extension beyond the paper's four base indices:
:mod:`repro.indices.pgm`, a PGM-style builder giving *provable* error
bounds via piecewise-linear CDFs.
"""

from repro.indices.base import (
    BuildStats,
    LearnedSpatialIndex,
    ModelBuilder,
    OriginalBuilder,
    TrainedModel,
)
from repro.indices.lisa import LISAIndex
from repro.indices.ml_index import MLIndex
from repro.indices.pgm import PGMBuilder
from repro.indices.rmi import RMIModel
from repro.indices.rsmi import RSMIIndex
from repro.indices.zm import ZMIndex

#: The one name -> class table of the learned indices: the CLI,
#: persistence, the shard workers and the experiment drivers all read it.
LEARNED_INDICES: dict[str, type[LearnedSpatialIndex]] = {
    cls.name: cls for cls in (ZMIndex, MLIndex, RSMIIndex, LISAIndex)
}

__all__ = [
    "BuildStats",
    "LEARNED_INDICES",
    "LISAIndex",
    "LearnedSpatialIndex",
    "MLIndex",
    "ModelBuilder",
    "OriginalBuilder",
    "PGMBuilder",
    "RMIModel",
    "RSMIIndex",
    "TrainedModel",
    "ZMIndex",
]
