"""Query-path metric helpers shared by the index implementations.

The predicted-error distribution — how wide the scan ranges are that the
models hand the refinement step — is the per-query face of the paper's
|Error| column.  :func:`record_range_widths` folds a batch of predicted
range widths into a registry histogram, and is a single boolean check when
observability is disabled so the query hot paths stay unaffected.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import get_registry
from repro.obs.trace import enabled

__all__ = ["record_range_widths"]

#: Range widths are point counts, so bucket from 1 upwards (1, 2, 4, ...).
_WIDTH_BASE = 1.0
_WIDTH_BUCKETS = 28


def record_range_widths(
    index_name: str, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray | None = None
) -> None:
    """Record ``hi - lo`` scan-range widths for one predicted batch: one
    per range, or with ``owner`` (the query each range belongs to) one per
    query, its ranges' widths summed.

    No-op unless tracing/observability is enabled; the widths land in the
    ``query.predicted_range_width`` histogram labelled by index.
    """
    if not enabled():
        return
    widths = np.maximum(np.asarray(hi) - np.asarray(lo), 0)
    if owner is not None:
        widths = np.bincount(owner, widths)
    if len(widths) == 0:
        return
    hist = get_registry().histogram(
        "query.predicted_range_width",
        base=_WIDTH_BASE,
        n_buckets=_WIDTH_BUCKETS,
        index=index_name,
    )
    hist.record_many(widths)
