"""Piecewise-linear approximation (PLA) with a provable error bound.

The paper notes (Section IV-A) that learned indices such as PGM use
piecewise-linear approximations of the CDF, "which allows a theoretical
bound on the query error based on the approximation error", and leaves
extending that to learned spatial indices as future work.  This module
implements that extension's substrate: a streaming PLA that guarantees
``|f(x) - y| <= epsilon`` for every training pair, using the classic
shrinking-slope-corridor algorithm (O'Rourke 1981; the same construction
PGM builds on).

A :class:`PiecewiseLinearModel` quacks like the FFN for prediction
(``predict(x) -> y`` over 2-D input), so it drops into
:class:`repro.indices.base.TrainedModel` unchanged — giving base indices
*theoretical* error bounds instead of empirical ones.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PiecewiseLinearModel", "fit_pla"]


class PiecewiseLinearModel:
    """An epsilon-guaranteed piecewise-linear regressor over sorted keys.

    Use :func:`fit_pla` to construct.  ``predict`` matches the FFN call
    convention (2-D input, per-row output).

    Segment ``i`` is valid from ``starts[i]`` (key space) and evaluated in
    anchor form ``y = slope * (x - anchor_x) + anchor_y`` rather than
    slope/intercept form: when two keys sit a few ulps apart the corridor
    slope can reach ~1e15, and ``anchor_y - slope * anchor_x`` would cancel
    catastrophically (the intercept's ulp dwarfs epsilon).  Anchor form
    keeps every rounding at the scale of the y-range.
    """

    def __init__(self, starts, slopes, anchors_x, anchors_y, epsilon: float) -> None:
        if len(starts) == 0:
            raise ValueError("a PLA needs at least one segment")
        self.epsilon = epsilon
        self._starts = np.array(starts, dtype=np.float64)
        self._slopes = np.array(slopes, dtype=np.float64)
        self._anchors_x = np.array(anchors_x, dtype=np.float64)
        self._anchors_y = np.array(anchors_y, dtype=np.float64)

    def state_dict(self) -> dict:
        """Durable state: the constructor's arguments."""
        return {
            "starts": self._starts,
            "slopes": self._slopes,
            "anchors_x": self._anchors_x,
            "anchors_y": self._anchors_y,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_state(cls, state: dict) -> "PiecewiseLinearModel":
        """Rebuild a model from :meth:`state_dict` output."""
        return cls(
            state["starts"],
            state["slopes"],
            state["anchors_x"],
            state["anchors_y"],
            state["epsilon"],
        )

    @property
    def n_segments(self) -> int:
        return len(self._starts)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Per-row prediction; accepts (n,), (n, 1) like the FFN."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, 0]
        idx = np.clip(np.searchsorted(self._starts, arr, side="right") - 1, 0, None)
        return self._slopes[idx] * (arr - self._anchors_x[idx]) + self._anchors_y[idx]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.predict(x)


def fit_pla(
    xs: np.ndarray, ys: np.ndarray, epsilon: float
) -> PiecewiseLinearModel:
    """Fit a PLA over sorted ``xs`` guaranteeing ``|f(x_i) - y_i| <= epsilon``.

    Greedy corridor construction: each segment starts at a point and keeps
    a feasible slope interval ``[lo, hi]``; every new point shrinks it to
    the slopes that pass within ±epsilon of the point.  When the interval
    empties, a new segment begins.  This yields the minimum number of
    segments among single-pass algorithms for the given anchor choice, and
    the guarantee holds by construction for all *training* points —
    exactly the PGM-style bound.
    """
    x = np.asarray(xs, dtype=np.float64).ravel()
    y = np.asarray(ys, dtype=np.float64).ravel()
    if len(x) == 0:
        raise ValueError("cannot fit a PLA on an empty data set")
    if len(x) != len(y):
        raise ValueError(f"{len(x)} keys vs {len(y)} targets")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if np.any(np.diff(x) < 0):
        raise ValueError("keys must be sorted ascending")

    segments: list[tuple[float, float, float, float]] = []
    anchor_x, anchor_y = x[0], y[0]
    lo, hi = -np.inf, np.inf
    start = x[0]

    def close_segment(last_index: int) -> None:
        if not np.isfinite(lo) and not np.isfinite(hi):
            slope = 0.0
        elif not np.isfinite(hi):
            slope = lo
        elif not np.isfinite(lo):
            slope = hi
        else:
            slope = lo / 2.0 + hi / 2.0  # avoids overflow of (lo + hi)
        segments.append((start, slope, anchor_x, anchor_y))

    # Gaps too small to divide by without overflow behave as duplicates.
    tiny = np.finfo(np.float64).tiny * 4.0

    for i in range(1, len(x)):
        dx = x[i] - anchor_x
        if dx <= tiny:
            # (Near-)duplicate key: the model will predict ~anchor_y here,
            # so the point is feasible only within epsilon vertically.
            if abs(y[i] - anchor_y) <= epsilon:
                continue
            close_segment(i - 1)
            anchor_x, anchor_y = x[i], y[i]
            lo, hi = -np.inf, np.inf
            start = x[i]
            continue
        new_lo = (y[i] - epsilon - anchor_y) / dx
        new_hi = (y[i] + epsilon - anchor_y) / dx
        lo2, hi2 = max(lo, new_lo), min(hi, new_hi)
        if lo2 <= hi2:
            lo, hi = lo2, hi2
        else:
            close_segment(i - 1)
            anchor_x, anchor_y = x[i], y[i]
            lo, hi = -np.inf, np.inf
            start = x[i]
    close_segment(len(x) - 1)
    return PiecewiseLinearModel(*np.array(segments).T, epsilon)
