"""Performance subsystem: fused model training and batch-query kernels.

ELSI's contribution is shrinking the training set behind each index model;
this package makes the surrounding *system* costs match — the models of a
multi-model build can train in one vectorised loop (:mod:`repro.perf.fused`,
``ELSIConfig(parallelism="fused")``), batch point lookups run
through vectorised gather kernels instead of per-query Python loops, and
multi-model batch prediction runs through one stacked-parameter compute
path (:class:`FusedInferenceEngine`) instead of one FFN call per leaf.
"""

from repro.perf.fused_infer import (
    FusedInferenceEngine,
    fusion_rejection_reason,
    record_fusion_rejected,
    resolve_dtype,
)

__all__ = [
    "FusedInferenceEngine",
    "fusion_rejection_reason",
    "record_fusion_rejected",
    "resolve_dtype",
]
