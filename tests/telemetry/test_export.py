"""Exporter tests: the Prometheus round-trip, JSONL, Chrome-trace merge."""

import json

import pytest

from repro.telemetry import (
    MetricRegistry,
    parse_prometheus,
    to_jsonl,
    to_prometheus,
)
from repro.trace import SpanRecorder, merged_chrome_trace


def _populated_registry() -> MetricRegistry:
    now = {"t": 0.0}
    r = MetricRegistry(clock=lambda: now["t"])
    ops = r.counter("mpi_allreduce_total", "collectives", labelnames=("algorithm",))
    ops.labels(algorithm="ring").inc(3)
    ops.labels(algorithm="recursive_doubling").inc(1)
    now["t"] = 1.5
    depth = r.gauge("queue_depth", "queued transfers", track=True)
    depth.set(4)
    now["t"] = 2.0
    depth.set(1)
    lat = r.histogram("lat_seconds", "latency", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        lat.observe(v)
    return r


def test_prometheus_round_trip():
    r = _populated_registry()
    parsed = parse_prometheus(to_prometheus(r))
    assert parsed["types"] == {
        "mpi_allreduce_total": "counter",
        "queue_depth": "gauge",
        "lat_seconds": "histogram",
    }
    assert parsed["help"]["queue_depth"] == "queued transfers"
    s = parsed["samples"]
    assert s[("mpi_allreduce_total", (("algorithm", "ring"),))] == 3
    assert s[("mpi_allreduce_total", (("algorithm", "recursive_doubling"),))] == 1
    assert s[("queue_depth", ())] == 1
    assert s[("lat_seconds_bucket", (("le", "0.01"),))] == 1
    assert s[("lat_seconds_bucket", (("le", "0.1"),))] == 2
    assert s[("lat_seconds_bucket", (("le", "1"),))] == 3
    assert s[("lat_seconds_bucket", (("le", "+Inf"),))] == 4
    assert s[("lat_seconds_sum", ())] == pytest.approx(5.555)
    assert s[("lat_seconds_count", ())] == 4


def test_prometheus_escapes_label_values():
    r = MetricRegistry()
    c = r.counter("c_total", labelnames=("path",))
    tricky = 'a"b\\c\nd'
    c.labels(path=tricky).inc()
    parsed = parse_prometheus(to_prometheus(r))
    assert parsed["samples"][("c_total", (("path", tricky),))] == 1


def test_jsonl_is_valid_json_per_line_and_complete():
    r = _populated_registry()
    lines = to_jsonl(r).splitlines()
    records = [json.loads(line) for line in lines]
    metrics = [rec for rec in records if rec["event"] == "metric"]
    tracks = [rec for rec in records if rec["event"] == "track"]
    assert {m["metric"] for m in metrics} == {
        "mpi_allreduce_total", "queue_depth", "lat_seconds",
    }
    # Tracked gauge updates appear as individual points with sim time.
    assert [(t["t"], t["value"]) for t in tracks] == [(1.5, 4.0), (2.0, 1.0)]
    hist = next(m for m in metrics if m["metric"] == "lat_seconds")
    assert hist["count"] == 4 and hist["buckets"]["+Inf"] == 4


def test_jsonl_includes_iteration_samples():
    recorder = SpanRecorder()
    recorder.on_iteration(rank=0, iteration=2, start_s=0.0, stall_end_s=0.1,
                          forward_end_s=0.5, last_emit_s=1.0, barrier_s=1.2,
                          end_s=1.3)
    lines = to_jsonl(MetricRegistry(),
                     iterations=recorder.iteration_records()).splitlines()
    rec = json.loads(lines[-1])
    assert rec["event"] == "iteration"
    assert rec["iteration"] == 2
    assert rec["backward_s"] == pytest.approx(0.5)
    assert rec["wait_s"] == pytest.approx(0.2)


def test_merge_chrome_trace_appends_counter_events():
    from repro.horovod.timeline import PHASES, Timeline

    timeline = Timeline()
    timeline.record("ALLREDUCE", "t0", 0.5, 1.0)
    r = _populated_registry()
    trace = json.loads(merged_chrome_trace(timeline, r))
    counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 1
    # The tracked gauge contributes one counter event per update, in µs.
    assert [(c["ts"], c["args"]["queue_depth"]) for c in counters] == [
        (1.5e6, 4.0), (2.0e6, 1.0),
    ]
    # Coherent merged scheme: counters ride a dedicated thread row of the
    # runtime process, metadata names come first, and the non-metadata
    # stream is globally ts-sorted.
    assert all(c["pid"] == 0 and c["tid"] == len(PHASES) for c in counters)
    names = {(e["pid"], e["tid"]): e["args"]["name"]
             for e in trace["traceEvents"] if e["ph"] == "M"
             and e["name"] == "thread_name"}
    assert names[(0, len(PHASES))] == "counters"
    body = [e for e in trace["traceEvents"] if e["ph"] != "M"]
    assert [e["ts"] for e in body] == sorted(e["ts"] for e in body)
    meta_idx = [i for i, e in enumerate(trace["traceEvents"])
                if e["ph"] == "M"]
    assert meta_idx == list(range(len(meta_idx)))


def test_empty_registry_exports():
    r = MetricRegistry()
    assert to_prometheus(r) == "\n"
    assert to_jsonl(r) == ""
    parsed = parse_prometheus(to_prometheus(r))
    assert parsed["samples"] == {}
