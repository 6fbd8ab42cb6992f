"""Performance subsystem: fused model training and batch-query kernels.

ELSI's contribution is shrinking the training set behind each index model;
this package makes the surrounding *system* costs match — the models of a
multi-model build can train in one vectorised loop (:mod:`repro.perf.fused`,
``ELSIConfig(parallelism="fused")``), and batch point and window lookups
run through vectorised gather kernels (:mod:`repro.perf.batching`) instead
of per-query Python loops.  A leaf set predicts through
:class:`repro.indices.rmi.ModelSet`, one forward pass per visited leaf.
"""
