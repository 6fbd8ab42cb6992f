"""Performance subsystem: batch-query kernels.

ELSI's contribution is shrinking the training set behind each index model;
this package makes the surrounding *system* costs match — batch point and
window lookups run through vectorised gather kernels
(:mod:`repro.perf.batching`) instead of per-query Python loops.  Every model
is fitted by one serial training loop (:func:`repro.indices.base.fit_model`),
and a leaf set predicts through :class:`repro.indices.rmi.ModelSet`, one
forward pass per visited leaf.
"""
