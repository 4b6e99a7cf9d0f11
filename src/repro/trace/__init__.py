"""The simulated-time observation plane: spans, metrics, critical path.

``repro.trace`` answers "where did the time go" for a simulated training
run, and *which* rank, link or fused buffer bounded each iteration.  A
:class:`SpanRecorder` is the run's one observer: it hooks every layer of
the stack (observation only — an observed run is bit-identical to a bare
one), records hierarchical spans and keeps the run's simulated-time
metric registry.  :func:`compute_critical_path` walks each steady
iteration into an ordered critical path whose per-bucket fold is E14's
efficiency attribution.  Exporters: the merged Chrome trace (timeline,
counter tracks and spans), a self-contained JSON span format, and a
plain-text bottleneck report.
"""

from repro.trace.critical import (
    BUCKETS,
    CriticalPathReport,
    IterationPath,
    PathSegment,
    compute_critical_path,
    explain_measurement,
)
from repro.trace.export import merged_chrome_trace
from repro.trace.spans import (
    SPAN_SCHEMA_VERSION,
    Span,
    SpanRecorder,
    load_spans,
    save_spans,
    well_nested_violations,
)

__all__ = [
    "BUCKETS",
    "SPAN_SCHEMA_VERSION",
    "CriticalPathReport",
    "IterationPath",
    "PathSegment",
    "Span",
    "SpanRecorder",
    "compute_critical_path",
    "explain_measurement",
    "load_spans",
    "merged_chrome_trace",
    "save_spans",
    "well_nested_violations",
]
