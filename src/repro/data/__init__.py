"""Data-set substrate.

The paper evaluates on four real sets (OSM1, OSM2, TPC-H, NYC) and two
synthetic ones (Uniform, Skewed).  Real traces are not available offline, so
:mod:`repro.data.real_like` provides synthetic stand-ins that reproduce the
distributional properties each experiment exercises (see DESIGN.md §1).
:mod:`repro.data.controlled` generates sets with a *target* KS distance from
uniform, which is how the method scorer and rebuild predictor are trained
(Section VII-B2).
"""

from repro.data.controlled import dataset_with_uniform_distance
from repro.data.datasets import DATASETS, load_dataset
from repro.data.generators import skewed, uniform

__all__ = [
    "DATASETS",
    "dataset_with_uniform_distance",
    "load_dataset",
    "skewed",
    "uniform",
]
