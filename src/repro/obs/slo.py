"""Rolling-window SLO tracking: latency quantiles and error-budget burn.

An SLO here is "quantile ``q`` of per-request latency stays under
``latency`` seconds" per request kind (``point`` / ``window`` / ``knn`` /
``update``).  The tracker keeps a rolling window of per-kind latency
samples in time slices, each a :class:`~repro.obs.metrics.Histogram`
(so quantile estimates are upper bounds by at most one doubling), and
derives two things:

- **quantile estimators** — p50/p99/p999 over everything inside the
  window, recomputed from the merged slice histograms on demand;
- **burn rate** — the fraction of windowed requests that violated the
  target, divided by the error budget the objective allows
  (``1 - quantile/100``).  Burn 1.0 means the budget is being spent
  exactly as fast as it accrues; :meth:`SLOTracker.burning` names the
  kinds at or above ``burn_threshold``.

The shard router is the one owner of a tracker (``RouterConfig``'s
``slo_targets``); a single :class:`~repro.serve.server.IndexServer` keeps
none.

Recording is O(1) per call (a bucket increment after locating the live
slice); quantiles and burn are computed only when published.  Publishing
(:meth:`SLOTracker.publish`) writes ``slo.p50_seconds`` /
``slo.p99_seconds`` / ``slo.p999_seconds`` / ``slo.burn_rate`` /
``slo.window_requests`` gauges (labelled ``kind=...``) into a
:class:`~repro.obs.metrics.MetricsRegistry`, which is how the fleet view
and the ``/metrics`` endpoint see them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.obs.metrics import Histogram

__all__ = ["SLOConfig", "SLOTarget", "SLOTracker", "DEFAULT_KINDS"]

#: The request kinds the serving tier records (a tracker accepts any
#: string kind; these are the conventional ones).
DEFAULT_KINDS = ("point", "window", "knn", "update")


@dataclass(frozen=True)
class SLOTarget:
    """One latency objective: ``quantile`` % of requests under ``latency``."""

    latency: float
    quantile: float = 99.0

    def __post_init__(self) -> None:
        if self.latency <= 0:
            raise ValueError(f"target latency must be positive, got {self.latency}")
        if not 0.0 < self.quantile < 100.0:
            raise ValueError(
                f"target quantile must be in (0, 100), got {self.quantile}"
            )

    @property
    def budget(self) -> float:
        """The error budget: the request fraction allowed over target."""
        return 1.0 - self.quantile / 100.0


def _parse_targets(spec: "dict | None") -> dict:
    """Normalise a target spec: ``{kind: seconds}`` or ``{kind: {"latency":
    s, "quantile": q}}`` or ``{kind: SLOTarget}`` → ``{kind: SLOTarget}``."""
    targets: dict[str, SLOTarget] = {}
    for kind, value in (spec or {}).items():
        if isinstance(value, SLOTarget):
            targets[kind] = value
        elif isinstance(value, dict):
            targets[kind] = SLOTarget(**value)
        else:
            targets[kind] = SLOTarget(latency=float(value))
    return targets


@dataclass(frozen=True)
class SLOConfig:
    """Targets plus the rolling-window shape.

    Attributes
    ----------
    targets:
        ``{kind: target}`` — see :func:`_parse_targets` for accepted
        forms.  Kinds without a target still get quantile gauges; burn
        is only computed where a target exists.
    window_seconds:
        How much history the quantiles and burn rate cover.
    n_slices:
        Ring granularity: the window is ``n_slices`` equal time slices,
        expired whole — so the effective window wobbles by one slice.
    burn_threshold:
        Burn rate at or above which :meth:`SLOTracker.burning` reports
        the kind.
    """

    targets: "dict | None" = None
    window_seconds: float = 60.0
    n_slices: int = 12
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be positive, got {self.window_seconds}"
            )
        if self.n_slices < 2:
            raise ValueError(f"n_slices must be >= 2, got {self.n_slices}")
        if self.burn_threshold <= 0:
            raise ValueError(
                f"burn_threshold must be positive, got {self.burn_threshold}"
            )


class _Window:
    """One kind's rolling window: a ring of time slices, each a latency
    histogram + violation count, expired wholesale as time advances."""

    __slots__ = ("slice_seconds", "n_slices", "slices")

    def __init__(self, window_seconds: float, n_slices: int) -> None:
        self.slice_seconds = window_seconds / n_slices
        self.n_slices = n_slices
        # {slice index: [histogram, violations]}
        self.slices: dict[int, list] = {}

    def _advance(self, now: float) -> int:
        current = int(now / self.slice_seconds)
        horizon = current - self.n_slices + 1
        for idx in [i for i in self.slices if i < horizon]:
            del self.slices[idx]
        return current

    def record(self, now: float, seconds: float, count: int, violated: bool) -> None:
        idx = self._advance(now)
        cell = self.slices.get(idx)
        if cell is None:
            cell = self.slices[idx] = [Histogram(), 0]
        cell[0].record(seconds, count)
        if violated:
            cell[1] += count

    def totals(self, now: float) -> "tuple[Histogram, int]":
        """Everything inside the window: one merged histogram and the
        violation count."""
        self._advance(now)
        merged, violations = Histogram(), 0
        for hist, violated in self.slices.values():
            merged.merge(hist)
            violations += violated
        return merged, violations


class SLOTracker:
    """Per-kind rolling latency windows with targets and burn rates."""

    def __init__(self, config: "SLOConfig | dict | None" = None) -> None:
        if isinstance(config, dict):
            config = SLOConfig(targets=config)
        self.config = config or SLOConfig()
        self.targets = _parse_targets(self.config.targets)
        self._lock = threading.Lock()
        self._windows: dict[str, _Window] = {}

    # ------------------------------------------------------------------
    def record(self, kind: str, seconds: float, count: int = 1) -> None:
        """Record that ``count`` requests of ``kind`` each took ``seconds``."""
        if count < 1:
            return
        target = self.targets.get(kind)
        violated = target is not None and seconds > target.latency
        now = time.monotonic()
        with self._lock:
            window = self._windows.get(kind)
            if window is None:
                window = self._windows[kind] = _Window(
                    self.config.window_seconds, self.config.n_slices
                )
            window.record(now, float(seconds), int(count), violated)

    # ------------------------------------------------------------------
    def _kind_totals(self, kind: str) -> "tuple[Histogram, int]":
        with self._lock:
            window = self._windows.get(kind)
            if window is None:
                return Histogram(), 0
            return window.totals(time.monotonic())

    def quantiles(self, kind: str) -> dict:
        """``{"p50": s, "p99": s, "p999": s, "n": count}`` over the window."""
        hist, _violations = self._kind_totals(kind)
        return {
            "p50": hist.percentile(50.0),
            "p99": hist.percentile(99.0),
            "p999": hist.percentile(99.9),
            "n": hist.count,
        }

    def burn_rate(self, kind: str) -> float:
        """Windowed violation fraction over the error budget (0 without a
        target or without samples)."""
        target = self.targets.get(kind)
        if target is None:
            return 0.0
        hist, violations = self._kind_totals(kind)
        n = hist.count
        if n == 0:
            return 0.0
        return (violations / n) / target.budget

    def burning(self) -> list[str]:
        """Kinds whose burn rate is at or past the threshold (sorted)."""
        return sorted(
            kind
            for kind in self.targets
            if self.burn_rate(kind) >= self.config.burn_threshold
        )

    # ------------------------------------------------------------------
    def kinds(self) -> list[str]:
        with self._lock:
            observed = set(self._windows)
        return sorted(observed | set(self.targets))

    def publish(self, registry) -> None:
        """Write per-kind quantile + burn gauges into ``registry``."""
        for kind in self.kinds():
            q = self.quantiles(kind)
            registry.gauge("slo.p50_seconds", kind=kind).set(q["p50"])
            registry.gauge("slo.p99_seconds", kind=kind).set(q["p99"])
            registry.gauge("slo.p999_seconds", kind=kind).set(q["p999"])
            registry.gauge("slo.window_requests", kind=kind).set(q["n"])
            if kind in self.targets:
                registry.gauge("slo.burn_rate", kind=kind).set(
                    self.burn_rate(kind)
                )

    def snapshot(self) -> dict:
        """JSON-able per-kind summary (quantiles, burn, target)."""
        out: dict[str, dict] = {}
        for kind in self.kinds():
            entry = dict(self.quantiles(kind))
            target = self.targets.get(kind)
            if target is not None:
                entry["target_latency"] = target.latency
                entry["target_quantile"] = target.quantile
                entry["burn_rate"] = self.burn_rate(kind)
            out[kind] = entry
        return out
