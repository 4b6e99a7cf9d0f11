"""Exporters: Prometheus text exposition and a JSONL event log.

Two views of the same :class:`~repro.telemetry.metrics.MetricRegistry`:

* :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` samples,
  ``_bucket``/``_sum``/``_count`` expansion for histograms), so a real
  scraper — or :func:`parse_prometheus`, which the tests round-trip
  through — can consume a run's final counters;
* :func:`to_jsonl` — one JSON object per sample (plus every point of the
  tracked time series and, optionally, the per-rank iteration records),
  an append-friendly event log.

The registry's tracked series reach the Chrome trace through
:func:`repro.trace.merged_chrome_trace`.
"""

from __future__ import annotations

import json
from typing import Any

from repro.telemetry.metrics import Histogram, MetricRegistry

__all__ = [
    "parse_prometheus",
    "to_jsonl",
    "to_prometheus",
]


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _labels_text(names: tuple[str, ...], values: tuple[str, ...],
                 extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [
        f'{n}="{_escape(v)}"' for n, v in list(zip(names, values)) + list(extra)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def to_prometheus(registry: MetricRegistry) -> str:
    """Render every family as Prometheus text exposition (v0.0.4)."""
    lines: list[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, child in family.child_items():
            if isinstance(child, Histogram):
                cumulative = child.cumulative()
                for bound, count in zip(family.buckets, cumulative):
                    labels = _labels_text(
                        family.labelnames, values, (("le", _fmt(bound)),)
                    )
                    lines.append(f"{family.name}_bucket{labels} {count}")
                base = _labels_text(family.labelnames, values)
                lines.append(f"{family.name}_sum{base} {_fmt(child.sum)}")
                lines.append(f"{family.name}_count{base} {child.count}")
            else:
                labels = _labels_text(family.labelnames, values)
                lines.append(f"{family.name}{labels} {_fmt(child.value)}")
    return "\n".join(lines) + "\n"


def _parse_labels(text: str) -> tuple[tuple[str, str], ...]:
    if not text:
        return ()
    assert text[0] == "{" and text[-1] == "}", text
    body = text[1:-1]
    pairs = []
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        name = body[i:eq]
        assert body[eq + 1] == '"'
        j = eq + 2
        raw = []
        while body[j] != '"':
            if body[j] == "\\":
                raw.append(body[j:j + 2])
                j += 2
            else:
                raw.append(body[j])
                j += 1
        pairs.append((name, _unescape("".join(raw))))
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return tuple(pairs)


def parse_prometheus(text: str) -> dict[str, Any]:
    """Parse text exposition back into types, help and samples.

    Returns ``{"types": {name: kind}, "help": {name: text},
    "samples": {(name, ((label, value), ...)): float}}``.  Histogram
    series appear under their expanded ``_bucket``/``_sum``/``_count``
    names, exactly as exposed.
    """
    types: dict[str, str] = {}
    help_texts: dict[str, str] = {}
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, rest = line[len("# HELP "):].partition(" ")
            help_texts[name] = rest
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        brace = line.find("{")
        if brace != -1:
            close = line.rindex("}")
            name = line[:brace]
            labels = _parse_labels(line[brace:close + 1])
            value_text = line[close + 1:].strip()
        else:
            name, _, value_text = line.partition(" ")
            labels = ()
        value_text = value_text.strip()
        if value_text == "+Inf":
            value = float("inf")
        elif value_text == "-Inf":
            value = float("-inf")
        else:
            value = float(value_text)
        samples[(name, labels)] = value
    return {"types": types, "help": help_texts, "samples": samples}


def to_jsonl(registry: MetricRegistry, iterations: list | None = None) -> str:
    """One JSON object per line: final values, track points, iterations.

    ``iterations`` (optional) is a list of per-rank iteration dicts
    (:meth:`repro.trace.SpanRecorder.iteration_records`); each becomes an
    ``{"event": "iteration", ...}`` record, making the log a complete
    machine-readable account of the run.
    """
    lines: list[str] = []
    for family in registry.collect():
        for values, child in family.child_items():
            labels = dict(zip(family.labelnames, values))
            if isinstance(child, Histogram):
                lines.append(json.dumps({
                    "event": "metric",
                    "t": child.last_t,
                    "metric": family.name,
                    "kind": family.kind,
                    "labels": labels,
                    "sum": child.sum,
                    "count": child.count,
                    "buckets": {
                        _fmt(b): c
                        for b, c in zip(family.buckets, child.cumulative())
                    },
                }))
                continue
            lines.append(json.dumps({
                "event": "metric",
                "t": child.last_t,
                "metric": family.name,
                "kind": family.kind,
                "labels": labels,
                "value": child.value,
            }))
            if child.track:
                for t, v in child.track:
                    lines.append(json.dumps({
                        "event": "track",
                        "t": t,
                        "metric": family.name,
                        "labels": labels,
                        "value": v,
                    }))
    for record in iterations or ():
        lines.append(json.dumps({"event": "iteration", **record}))
    return "\n".join(lines) + ("\n" if lines else "")

