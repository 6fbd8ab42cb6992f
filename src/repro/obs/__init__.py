"""Unified observability: structured tracing + a metrics registry.

ELSI's whole argument is a cost story — build time against query error,
steered by a learned method selector.  This package makes that story
observable end to end:

- :mod:`repro.obs.trace` — nested spans with durations and attributes
  (``span("build.method_select", n=...)``), an in-memory ring buffer, an
  optional ``REPRO_TRACE`` JSON-lines sink, and merge support for spans
  produced inside worker processes;
- :mod:`repro.obs.metrics` — counters, gauges and log-bucket histograms
  in a :class:`MetricsRegistry` whose export is the one stats schema
  (read with :func:`series_sum` / :func:`histogram_stat`; the machinery
  behind ``repro.serve.stats.ServerStats``);
- :mod:`repro.obs.report` — per-phase cost breakdowns and span trees from
  a trace file (``python -m repro obs report``), including cross-process
  trees adopted from shard workers;
- :mod:`repro.obs.flame` — flame graphs from a trace file
  (``python -m repro obs flame``);
- :mod:`repro.obs.query_obs` — the model-quality instruments
  (``query.predicted_range_width``).

Everything is no-op cheap when disabled: a single boolean guard at each
site, so the instrumented hot paths stay within the benchmark overhead
budget (<5 %; see ``docs/observability.md``).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    histogram_stat,
    series_sum,
)
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    disable,
    enable,
    enabled,
    get_tracer,
    new_request_id,
    span,
    traced,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "get_tracer",
    "histogram_stat",
    "new_request_id",
    "series_sum",
    "span",
    "traced",
]
