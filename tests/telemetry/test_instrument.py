"""End-to-end instrumentation tests: the recorder's metrics on real runs."""

import pytest

from repro.core import measure_training, paper_tuned_config
from repro.trace import SpanRecorder


@pytest.fixture(scope="module")
def measured():
    return measure_training(
        6, paper_tuned_config(), iterations=3, trace=True
    )


def test_probe_rides_on_measurement(measured):
    assert isinstance(measured.trace, SpanRecorder)


def test_iteration_samples_cover_every_rank_iteration(measured):
    records = measured.trace.iteration_records()
    assert len(records) == 6 * 3
    assert {(r["rank"], r["iteration"]) for r in records} == {
        (r, i) for r in range(6) for i in range(3)
    }


def test_sample_instants_are_ordered(measured):
    children = measured.trace.child_index()
    for it in measured.trace.by_cat("ITERATION"):
        kids = {c.cat: c for c in children[it.sid]}
        fw, bw, opt = kids["FORWARD"], kids["BACKWARD"], kids["OPTIMIZER"]
        assert (it.start_s <= fw.start_s <= fw.end_s
                <= bw.end_s <= opt.start_s <= opt.end_s == it.end_s)


def test_kernel_and_runtime_metrics_populated(measured):
    r = measured.trace.registry
    assert r.get("hvd_cycles_total").default.value == (
        measured.runtime_stats.cycles
    )
    negotiated = sum(
        c.value for c in r.get("hvd_negotiations_total").children()
    )
    assert negotiated == measured.runtime_stats.negotiations
    cached = r.get("hvd_negotiations_total").labels(cached="yes").value
    assert cached == measured.runtime_stats.cache_hits
    assert r.get("train_iterations_total").default.value == 18
    # Allreduce accounting covers the runtime's reduced bytes (wire bytes).
    reduced = sum(
        c.value for c in r.get("mpi_allreduce_bytes_total").children()
    )
    assert reduced > 0
    fused = sum(
        c.count for c in r.get("hvd_fusion_tensors_per_group").children()
    )
    assert fused == measured.runtime_stats.fused_ops


def test_link_metrics_match_utilization_report(measured):
    r = measured.trace.registry
    for name, entry in measured.link_utilization.items():
        assert r.get("link_bytes_total").labels(type=name).value == (
            entry["bytes"]
        )
        assert r.get("link_mean_utilization").labels(type=name).value == (
            pytest.approx(entry["mean_utilization"])
        )


def test_phase_seconds_match_samples(measured):
    r = measured.trace.registry
    records = measured.trace.iteration_records()
    phase = r.get("train_phase_seconds_total")
    assert phase.labels(phase="forward").value == pytest.approx(
        sum(rec["forward_s"] for rec in records)
    )
    assert phase.labels(phase="allreduce_wait").value == pytest.approx(
        sum(rec["wait_s"] for rec in records)
    )


def test_instrumentation_is_observation_only(measured):
    """The acceptance bound is <5% throughput change; simulated time is
    in fact bit-identical with the recorder attached."""
    bare = measure_training(6, paper_tuned_config(), iterations=3)
    assert bare.images_per_second == measured.images_per_second
    assert bare.stats.iteration_seconds == measured.stats.iteration_seconds


def test_existing_probe_can_be_passed_in():
    recorder = SpanRecorder()
    m = measure_training(2, paper_tuned_config(), iterations=2,
                         trace=recorder)
    assert m.trace is recorder
    assert recorder.iteration_records()
