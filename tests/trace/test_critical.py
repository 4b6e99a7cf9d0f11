"""Critical-path engine: properties, reconciliation and reporting."""

import dataclasses

import pytest

from repro.trace import (
    BUCKETS,
    SpanRecorder,
    compute_critical_path,
    explain_measurement,
)
from repro.trace.critical import COMM_PHASES, _union_seconds


@pytest.fixture(scope="module")
def report(traced_measurement):
    return explain_measurement(traced_measurement)


def flat_totals(recorder, timeline, warmup_iterations):
    """Mean bucket seconds by the flat formula: the test oracle.

    The pre-span attribution arithmetic, step for step: per-rank phase
    instants come from the ITERATION span stacks, exposed communication
    is a clipped union of the timeline's communication phases over the
    tail window, and the idle remainder splits by SUSPECT overlap.
    """
    comm_spans = [(ev.start_s, ev.end_s)
                  for phase in COMM_PHASES for ev in timeline.spans(phase)]
    suspect_spans = [(ev.start_s, ev.end_s)
                     for ev in timeline.spans("SUSPECT")]
    children = recorder.child_index()
    by_iteration = {}
    for it in recorder.by_cat("ITERATION"):
        kids = {c.cat: c for c in children[it.sid]}
        fw, bw, opt = kids["FORWARD"], kids["BACKWARD"], kids["OPTIMIZER"]
        by_iteration.setdefault(it.tags["iteration"], []).append({
            "rank": it.tags["rank"], "start_s": it.start_s,
            "stall_end_s": fw.start_s, "forward_end_s": fw.end_s,
            "last_emit_s": bw.end_s, "barrier_s": opt.start_s,
            "end_s": it.end_s,
        })
    breakdowns = []
    for iteration in sorted(by_iteration):
        if iteration < warmup_iterations:
            continue
        group = by_iteration[iteration]
        mark = min(group, key=lambda s: s["rank"])
        emit_max = max(s["last_emit_s"] for s in group)
        skew = max(0.0, emit_max - mark["last_emit_s"])
        tail_lo = min(emit_max, mark["barrier_s"])
        tail = mark["barrier_s"] - tail_lo
        exposed = min(tail, _union_seconds(comm_spans, tail_lo,
                                           mark["barrier_s"]))
        idle = max(0.0, tail - exposed)
        suspect_frac = 0.0
        if idle > 0 and suspect_spans:
            overlap = _union_seconds(suspect_spans, tail_lo,
                                     mark["barrier_s"])
            suspect_frac = min(1.0, overlap / tail) if tail > 0 else 0.0
        compute = ((mark["forward_end_s"] - mark["stall_end_s"])
                   + (mark["last_emit_s"] - mark["forward_end_s"])
                   + (mark["end_s"] - mark["barrier_s"]))
        breakdowns.append({
            "compute": compute,
            "input_stall": mark["stall_end_s"] - mark["start_s"],
            "straggler_skew": skew,
            "exposed_comm": exposed,
            "fusion_wait": idle * (1.0 - suspect_frac),
            "fault_suspect": idle * suspect_frac,
        })
    n = len(breakdowns)
    return {bucket: sum(b[bucket] for b in breakdowns) / n
            for bucket in BUCKETS}


def faulted_golden_run():
    """The golden trace's run: straggler plus crash under a deadline."""
    from repro.core import measure_training, paper_tuned_config
    from repro.faults import FaultSchedule, RankCrash, StragglerGPU

    cfg = paper_tuned_config()
    cfg = dataclasses.replace(cfg, horovod=cfg.horovod.with_(
        cycle_time_s=50e-3, negotiation_deadline_s=0.2, suspect_retries=1,
    ))
    schedule = FaultSchedule.of(
        StragglerGPU(rank=1, start_s=1.0, duration_s=1.0, slowdown=2.0),
        RankCrash(rank=2, start_s=2.5),
    )
    return measure_training(3, cfg, iterations=3, jitter_std=0.0, seed=0,
                            schedule=schedule, trace="links")


def test_path_never_exceeds_wall(report):
    for p in report.iterations:
        assert p.path_s <= p.wall_s + 1e-9
        # ... and covers at least the largest single bucket.
        assert p.path_s >= max(p.buckets().values()) - 1e-9


def test_path_equals_wall_by_construction(report):
    # The segment walk spans the whole iteration: path == wall.
    assert report.mean_path_s == pytest.approx(report.mean_wall_s)
    assert report.max_sum_error < 1e-9


def test_reconciles_with_attribution(traced_measurement, report):
    flat = flat_totals(traced_measurement.trace, traced_measurement.timeline,
                       traced_measurement.stats.warmup_iterations)
    assert report.totals() == flat
    assert tuple(report.shares()) == BUCKETS
    assert sum(report.shares().values()) == pytest.approx(1.0)


def test_reconciles_with_flat_formula_on_faulted_run():
    m = faulted_golden_run()
    report = explain_measurement(m)
    assert report.totals()["fault_suspect"] > 0
    flat = flat_totals(m.trace, m.timeline, m.stats.warmup_iterations)
    assert report.totals() == flat


def test_segments_are_ordered_and_contiguous(report):
    for p in report.iterations:
        segs = p.segments
        assert segs
        for a, b in zip(segs, segs[1:]):
            assert a.end_s <= b.start_s + 1e-9
        assert all(s.seconds >= -1e-12 for s in segs)


def test_slack_non_negative_and_zero_on_path(report):
    assert report.slack_s
    assert all(s >= -1e-9 for s in report.slack_s.values())
    assert any(s == 0.0 for s in report.slack_s.values())


def test_link_dwell_present_at_links_level(report):
    assert report.level == "links"
    # The traced run exposes some allreduce, so links accrue dwell.
    assert isinstance(report.link_dwell_s, dict)
    for label, seconds in report.dwell_by_link():
        assert isinstance(label, str) and seconds >= 0


def test_ranked_views_and_top_spans(report):
    dwell = report.dwell_by_phase()
    assert dwell and dwell == sorted(dwell, key=lambda kv: -kv[1])
    top = report.top_spans(count=3)
    assert 0 < len(top) <= 3
    assert all({"sid", "cat", "name", "seconds_per_iter", "share"}
               <= set(item) for item in top)
    summary = report.trace_summary()
    assert summary["critical_path_ms"] > 0
    assert summary["level"] == "links"
    assert 0 <= summary["exposed_allreduce_share"] <= 1
    assert all("sid" not in item for item in summary["top_spans"])
    text = report.report()
    assert "critical path" in text and "top bottleneck spans" in text


def test_untraced_measurement_is_rejected():
    from repro.core import measure_training, paper_tuned_config

    m = measure_training(2, paper_tuned_config(), iterations=2)
    with pytest.raises(ValueError, match="no trace"):
        explain_measurement(m)


def test_empty_recorder_is_rejected():
    with pytest.raises(ValueError, match="ITERATION"):
        compute_critical_path(SpanRecorder())
