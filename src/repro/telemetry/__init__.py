"""Metrics: a labeled registry on simulated time, plus its exporters.

``repro.telemetry`` holds the numbers a run reports, not the hooks that
produce them:

* :mod:`~repro.telemetry.metrics` — a :class:`MetricRegistry` of labeled
  counters/gauges/histograms keyed on **simulated** time.  A simulated
  run's registry lives on its observer,
  :class:`repro.trace.SpanRecorder` (``Measurement.trace.registry``); the
  runner, fabric and service keep their own for wall-clock operations;
* :mod:`~repro.telemetry.export` — Prometheus text exposition (and its
  parser) and the JSONL event log.

Efficiency attribution (E14's buckets) is the per-bucket fold of the
critical path, :mod:`repro.trace.critical`.
"""

from repro.telemetry.export import (
    parse_prometheus,
    to_jsonl,
    to_prometheus,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricRegistry,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricRegistry",
    "parse_prometheus",
    "to_jsonl",
    "to_prometheus",
]
