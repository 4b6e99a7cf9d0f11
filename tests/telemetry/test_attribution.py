"""Attribution tests: the critical-path bucket fold on synthetic and real runs."""

import pytest

from repro.core import (
    measure_training,
    paper_default_config,
    paper_tuned_config,
)
from repro.horovod.timeline import Timeline
from repro.trace import (
    BUCKETS,
    SpanRecorder,
    compute_critical_path,
    explain_measurement,
)


def _recorder(*iterations, comm=()):
    """A recorder holding synthetic iterations and communication spans.

    Each iteration is ``(rank, iteration, start, stall, fwd, emit,
    barrier, end)``; each comm span ``(phase, start, end)``.
    """
    rec = SpanRecorder()
    for it in iterations:
        rec.on_iteration(*it)
    for phase, start, end in comm:
        rec.record(phase, phase.lower(), start, end)
    return rec


def _timeline(*spans):
    timeline = Timeline()
    for phase, start, end in spans:
        timeline.record(phase, phase.lower(), start, end)
    return timeline


def test_buckets_sum_exactly_to_wall():
    rec = _recorder(
        (0, 0, 0.0, 0.1, 0.5, 1.0, 1.6, 1.8),
        (1, 0, 0.0, 0.0, 0.6, 1.2, 1.6, 1.9),
        comm=[("ALLREDUCE", 1.2, 1.5)],
    )
    report = compute_critical_path(rec, warmup_iterations=0, gpus=2)
    [b] = report.iterations
    buckets = b.buckets()
    # Marking rank 0: wall 1.8, stall 0.1, compute 0.4+0.5+0.2,
    # skew = 1.2 - 1.0, tail window [1.2, 1.6]: 0.3 comm + 0.1 idle.
    assert b.wall_s == pytest.approx(1.8)
    assert buckets["input_stall"] == pytest.approx(0.1)
    assert buckets["compute"] == pytest.approx(1.1)
    assert buckets["straggler_skew"] == pytest.approx(0.2)
    assert buckets["exposed_comm"] == pytest.approx(0.3)
    assert buckets["fusion_wait"] == pytest.approx(0.1)
    assert buckets["fault_suspect"] == 0.0
    assert sum(buckets.values()) == pytest.approx(b.wall_s)
    assert report.max_sum_error < 1e-9


def test_overlapping_comm_spans_union_not_double_counted():
    rec = _recorder(
        (0, 0, 0.0, 0.0, 0.2, 0.5, 1.5, 1.5),
        comm=[
            ("ALLREDUCE", 0.6, 1.0), ("ALLREDUCE", 0.8, 1.2),
            ("NEGOTIATE", 0.9, 1.1),
            ("MEMCPY_IN", 0.0, 10.0),  # clipped to the tail window
        ],
    )
    [b] = compute_critical_path(rec, warmup_iterations=0).iterations
    # Tail window is [0.5, 1.5]; the memcpy span covers all of it.
    assert b.buckets()["exposed_comm"] == pytest.approx(1.0)
    assert b.buckets()["fusion_wait"] == 0.0


def test_suspect_overlap_splits_idle_tail():
    rec = _recorder((0, 0, 0.0, 0.0, 0.2, 0.4, 1.4, 1.4))
    timeline = _timeline(("SUSPECT", 0.4, 0.9))  # half the 1.0 s tail
    [b] = compute_critical_path(rec, timeline,
                                warmup_iterations=0).iterations
    buckets = b.buckets()
    assert buckets["exposed_comm"] == 0.0
    assert buckets["fault_suspect"] == pytest.approx(0.5)
    assert buckets["fusion_wait"] == pytest.approx(0.5)
    assert sum(buckets.values()) == pytest.approx(b.wall_s)


def test_warmup_iterations_are_excluded():
    rec = _recorder(
        (0, 0, 0.0, 0.0, 0.2, 0.4, 0.5, 0.6),
        (0, 1, 0.6, 0.6, 0.8, 1.0, 1.1, 1.2),
    )
    report = compute_critical_path(rec, warmup_iterations=1)
    assert [p.iteration for p in report.iterations] == [1]
    with pytest.raises(ValueError):
        compute_critical_path(rec, warmup_iterations=2)
    with pytest.raises(ValueError):
        compute_critical_path(SpanRecorder())


def test_shares_and_table():
    rec = _recorder((0, 0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0))
    report = compute_critical_path(rec, warmup_iterations=0, gpus=4,
                                   label="unit")
    shares = report.shares()
    assert shares["compute"] == pytest.approx(1.0)
    assert sum(shares.values()) == pytest.approx(1.0)
    text = report.report()
    assert "unit" in text and "@ 4 GPUs" in text
    for bucket in BUCKETS:
        assert bucket in text


def test_attribute_measurement_requires_telemetry():
    m = measure_training(2, paper_tuned_config(), iterations=2)
    with pytest.raises(ValueError):
        explain_measurement(m)


def test_real_run_sums_within_tolerance_and_compares():
    md = measure_training(6, paper_default_config(), iterations=3,
                          trace=True)
    mt = measure_training(6, paper_tuned_config(), iterations=3,
                          trace=True)
    ad = explain_measurement(md)
    at = explain_measurement(mt)
    assert ad.max_sum_error < 0.02
    assert at.max_sum_error < 0.02
    assert ad.mean_wall_s == pytest.approx(
        md.stats.mean_iteration_seconds, rel=1e-6
    )
