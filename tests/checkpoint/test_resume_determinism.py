"""The crash-safety gate: interrupt-at-boundary-k + resume == never crashed.

Every test runs one uninterrupted baseline, interrupts a second identical
run at an iteration boundary via ``CheckpointPlan.stop_at`` (or a
scheduled :class:`~repro.faults.ProcessKill`), resumes the captured
checkpoint with :func:`~repro.checkpoint.resume_training`, and asserts
the completed run is **bit-identical** to the baseline — pickle bytes of
the stats/timeline/utilization payloads, not approximate throughput.
"""

import dataclasses
import pickle

import pytest

from repro.checkpoint import (
    CheckpointError,
    CheckpointPlan,
    read_checkpoint,
    resume_training,
)
from repro.core import measure_training, paper_tuned_config
from repro.faults import (
    DegradedRail,
    FaultSchedule,
    LinkFlap,
    ProcessKill,
    RankCrash,
    RankRestart,
    StragglerGPU,
)

RAIL_A = ("nic:0:0", "switch:-1:1")
RAIL_B = ("nic:1:0", "switch:-1:1")


def _payload(m):
    """The comparable result payload (checkpoint plumbing excluded)."""
    return pickle.dumps(
        (m.stats, m.timeline, m.link_utilization, m.fault_report)
    )


def _detector(cfg, t_iter):
    """Failure-detector tuning crash schedules need to terminate."""
    return dataclasses.replace(cfg, horovod=cfg.horovod.with_(
        negotiation_deadline_s=0.15 * t_iter, suspect_retries=1,
    ))


def _t_iter(cfg, gpus):
    """One cheap probe run to scale fault windows to iteration time."""
    probe = measure_training(gpus, cfg, iterations=2, jitter_std=0.0)
    return probe.stats.mean_iteration_seconds


def test_plain_resume_bit_identical():
    cfg = paper_tuned_config()
    baseline = measure_training(6, cfg, iterations=5, seed=1)
    blob = _payload(baseline)
    for stop in (1, 3, 4):
        m = measure_training(
            6, cfg, iterations=5, seed=1,
            checkpoint=CheckpointPlan(every=1, stop_at=stop),
        )
        assert m.interrupted and m.checkpoint is not None
        assert m.checkpoint.boundary == stop
        resumed = resume_training(m.checkpoint)
        assert not resumed.interrupted
        assert _payload(resumed) == blob, f"divergence at boundary {stop}"


def test_faults_spanning_the_boundary_resume_bit_identical():
    cfg = paper_tuned_config()
    t = _t_iter(cfg, 12)
    schedule = FaultSchedule.of(
        StragglerGPU(rank=1, start_s=0.5 * t, duration_s=3.0 * t,
                     slowdown=2.0),
        DegradedRail(link=RAIL_A, start_s=1.2 * t, duration_s=2.5 * t,
                     factor=0.5),
        LinkFlap(link=RAIL_B, start_s=0.8 * t, duration_s=3.0 * t,
                 period_s=0.6 * t, down_s=0.2 * t, severity=0.4),
        # Still open when the run ends: it closes then, resumed or not.
        DegradedRail(link=RAIL_A, start_s=4.0 * t, duration_s=1e6,
                     factor=0.25),
    )
    baseline = measure_training(12, cfg, iterations=5, seed=2,
                                schedule=schedule)
    assert baseline.fault_report["faults_applied"] >= 3
    assert baseline.fault_report["fault_phase_seconds"]["FAULT"] < 1e3
    m = measure_training(12, cfg, iterations=5, seed=2, schedule=schedule,
                         checkpoint=CheckpointPlan(every=1, stop_at=2))
    assert m.interrupted
    # The interrupt lands while every fault window is still open: the
    # resumed injector must replay link history and re-arm continuations.
    resumed = resume_training(m.checkpoint)
    assert _payload(resumed) == _payload(baseline)


def test_crash_restart_resume_bit_identical():
    base_cfg = paper_tuned_config()
    t = _t_iter(base_cfg, 6)
    cfg = _detector(base_cfg, t)
    schedule = FaultSchedule.of(
        RankCrash(rank=5, start_s=1.5 * t),
        RankRestart(rank=5, start_s=3.5 * t),
        StragglerGPU(rank=2, start_s=0.4 * t, duration_s=1.1 * t,
                     slowdown=2.5),
    )
    baseline = measure_training(6, cfg, iterations=6, seed=3,
                                schedule=schedule)
    assert baseline.fault_report["rank_crashes"] == 1
    assert baseline.fault_report["rank_restarts"] == 1
    m = measure_training(6, cfg, iterations=6, seed=3, schedule=schedule,
                         checkpoint=CheckpointPlan(every=1, stop_at=3))
    assert m.interrupted
    resumed = resume_training(m.checkpoint)
    assert _payload(resumed) == _payload(baseline)


def test_telemetry_attribution_identical_after_resume():
    from repro.trace import explain_measurement

    def attribution(measurement):
        report = explain_measurement(measurement)
        return pickle.dumps([(p.iteration, p.wall_s, p.buckets())
                             for p in report.iterations])

    cfg = paper_tuned_config()
    baseline = measure_training(6, cfg, iterations=4, seed=4, trace=True)
    base_att = attribution(baseline)
    m = measure_training(6, cfg, iterations=4, seed=4, trace=True,
                         checkpoint=CheckpointPlan(every=1, stop_at=2))
    assert m.interrupted
    # Capture/skip lifecycle shows up on the recorder's registry.
    captures = m.trace.registry.get("checkpoint_captures_total")
    assert captures is not None and captures.default.value >= 1
    resumed = resume_training(m.checkpoint)
    assert pickle.dumps(resumed.stats) == pickle.dumps(baseline.stats)
    assert attribution(resumed) == base_att
    resumes = resumed.trace.registry.get("checkpoint_resumes_total")
    assert resumes is not None and resumes.default.value == 1


def test_process_kill_and_disk_roundtrip(tmp_path):
    cfg = paper_tuned_config()
    baseline = measure_training(6, cfg, iterations=4, seed=5)
    kill_at = 0.6 * sum(baseline.stats.iteration_seconds)
    path = tmp_path / "run" / "train.ckpt"
    m = measure_training(
        6, cfg, iterations=4, seed=5,
        schedule=FaultSchedule.of(ProcessKill(start_s=kill_at)),
        checkpoint=CheckpointPlan(every=1, path=path),
    )
    assert m.interrupted
    assert m.fault_report["job_kills"] == 1
    assert path.exists()
    # Resume from the on-disk container, both by object and by path.
    ckpt = read_checkpoint(path)
    assert ckpt.boundary == m.checkpoint.boundary
    resumed = resume_training(path)
    # The resumed run keeps an (all-zero) fault_report — the ProcessKill
    # models the interruption and is stripped — so compare the result
    # payloads the baseline actually has.  The timeline is compared
    # event by event: a disk roundtrip deduplicates shared strings, so
    # whole-list pickle bytes differ in memo structure, not content.
    assert pickle.dumps(resumed.stats) == pickle.dumps(baseline.stats)
    assert pickle.dumps(resumed.link_utilization) == \
        pickle.dumps(baseline.link_utilization)
    assert len(resumed.timeline.events) == len(baseline.timeline.events)
    for ours, theirs in zip(resumed.timeline.events,
                            baseline.timeline.events):
        assert pickle.dumps(ours) == pickle.dumps(theirs)
    assert resumed.fault_report["job_kills"] == 0
    assert pickle.dumps(resume_training(ckpt).stats) == \
        pickle.dumps(baseline.stats)


def test_salt_mismatch_refused_unless_overridden():
    cfg = paper_tuned_config()
    m = measure_training(2, cfg, iterations=2, seed=6, checkpoint=1)
    ckpt = m.checkpoint
    assert ckpt is not None and not m.interrupted
    stale = dataclasses.replace(ckpt, sim_salt="0.0.0+sim-0")
    with pytest.raises(CheckpointError, match="salt"):
        resume_training(stale)
    resumed = resume_training(stale, allow_version_mismatch=True)
    assert resumed.stats.iteration_seconds


def test_checkpoint_plan_validation():
    with pytest.raises(ValueError):
        CheckpointPlan(every=-1)
    with pytest.raises(ValueError):
        CheckpointPlan(every=1, stop_at=0)
    with pytest.raises(ValueError):
        CheckpointPlan(every=0)  # no cadence and no stop: never captures
