"""The persistent job queue: priorities, leases, recovery, compaction."""

import json

import pytest

from repro.service import JobQueue, JobState, QueueError, parse_spec
from repro.telemetry.metrics import MetricRegistry

SPEC = {"experiment": "E2", "variant": "quick"}


def make_queue(tmp_path, **kwargs):
    return JobQueue(tmp_path / "state", **kwargs)


def test_submit_and_lease_fifo(tmp_path):
    queue = make_queue(tmp_path)
    first = queue.submit(SPEC)
    second = queue.submit(SPEC)
    assert queue.depth() == 2
    assert queue.lease("w0").id == first.id
    assert queue.lease("w0").id == second.id
    assert queue.lease("w0") is None


def test_priority_descends_fifo_within_level(tmp_path):
    queue = make_queue(tmp_path)
    low = queue.submit(SPEC, priority=0)
    high_a = queue.submit(SPEC, priority=5)
    high_b = queue.submit(SPEC, priority=5)
    assert [queue.lease("w").id for _ in range(3)] == [
        high_a.id, high_b.id, low.id]


def test_full_lifecycle_and_accounting(tmp_path):
    registry = MetricRegistry()
    queue = make_queue(tmp_path, registry=registry)
    job = queue.submit(SPEC, tenant="alice")
    leased = queue.lease("w0")
    assert leased.state == JobState.LEASED and leased.attempts == 1
    queue.mark_running(job.id)
    done = queue.complete(job.id, "results/x.json",
                          runner={"cache_hits": 3})
    assert done.state == JobState.DONE
    assert done.runner == {"cache_hits": 3}
    assert done.elapsed_s is not None
    assert queue.active_count("alice") == 0


def test_duplicate_completion_refused(tmp_path):
    queue = make_queue(tmp_path)
    job = queue.submit(SPEC)
    queue.lease("w0")
    queue.mark_running(job.id)
    queue.complete(job.id, "r.json")
    with pytest.raises(QueueError, match="duplicate"):
        queue.complete(job.id, "r2.json")
    with pytest.raises(QueueError, match="terminal"):
        queue.fail(job.id, "late error")


def test_cancel_only_submitted(tmp_path):
    queue = make_queue(tmp_path)
    job = queue.submit(SPEC)
    leased = queue.submit(SPEC)
    queue.lease("w0")  # takes `job`
    assert queue.cancel(leased.id).state == JobState.CANCELLED
    with pytest.raises(QueueError, match="only SUBMITTED"):
        queue.cancel(job.id)
    with pytest.raises(QueueError, match="unknown job"):
        queue.cancel("nope")


def test_replay_rebuilds_state(tmp_path):
    queue = make_queue(tmp_path)
    done = queue.submit(SPEC, tenant="alice", priority=2)
    failed = queue.submit(SPEC)
    pending = queue.submit(SPEC)
    queue.lease("w0")
    queue.mark_running(done.id)
    queue.complete(done.id, "r.json", runner={"cache_hits": 1})
    queue.lease("w0")
    queue.fail(failed.id, "boom")

    replayed = make_queue(tmp_path)
    assert replayed.get(done.id).state == JobState.DONE
    assert replayed.get(done.id).runner == {"cache_hits": 1}
    assert replayed.get(done.id).priority == 2
    assert replayed.get(failed.id).state == JobState.FAILED
    assert replayed.get(failed.id).error == "boom"
    assert replayed.get(pending.id).state == JobState.SUBMITTED
    assert replayed.depth() == 1


def test_recover_requeues_leases_of_dead_process(tmp_path):
    queue = make_queue(tmp_path)
    job = queue.submit(SPEC)
    queue.lease("dead:w0")
    queue.mark_running(job.id)

    restarted = make_queue(tmp_path)
    touched = restarted.recover()
    assert [j.id for j in touched] == [job.id]
    fresh = restarted.get(job.id)
    assert fresh.state == JobState.SUBMITTED
    assert fresh.recoveries == 1
    assert fresh.worker is None
    # The next leaseholder picks it up normally.
    assert restarted.lease("w1").id == job.id


def test_recover_quarantines_poison_jobs(tmp_path):
    queue = make_queue(tmp_path, max_recoveries=2)
    job = queue.submit(SPEC)
    for crash in range(3):
        queue.lease(f"dead:{crash}")
        queue = make_queue(tmp_path, max_recoveries=2)
        queue.recover()
    assert queue.get(job.id).state == JobState.QUARANTINED
    assert "crashes" in queue.get(job.id).error


def _job_doc(job_id, **fields):
    """A job doc as the journal held it when leases had a deadline."""
    doc = {"id": job_id, "tenant": "anonymous", "spec": SPEC,
           "spec_key": "k-" + job_id, "priority": 0, "state": "SUBMITTED",
           "created_s": 1.0, "started_s": None, "finished_s": None,
           "elapsed_s": None, "attempts": 0, "recoveries": 0,
           "leased_s": None, "progress": {}, "version": 0, "worker": None,
           "lease_until": None, "error": None, "result_path": None,
           "runner": {}}
    doc.update(fields)
    return doc


def test_state_dir_with_lease_deadlines_still_replays(tmp_path):
    """A journal whose job docs and ``job_leased`` records carry
    ``lease_until`` replays to the same states, and crash recovery
    requeues the leased job."""
    records = [
        {"event": "job_snapshot",
         "job": _job_doc("done", state="DONE", attempts=1, leased_s=2.0,
                         started_s=2.5, finished_s=3.0, elapsed_s=0.5,
                         result_path="r.json", version=4)},
        {"event": "job_submitted", "job": _job_doc("leased")},
        {"event": "job_leased", "id": "leased", "worker": "1:w-0",
         "lease_until": 62.0, "leased_s": 2.0, "attempts": 1},
        {"event": "job_running", "id": "leased", "started_s": 2.5},
        {"event": "job_submitted", "job": _job_doc("queued")},
        {"event": "job_submitted", "job": _job_doc("failed")},
        {"event": "job_leased", "id": "failed", "worker": "1:w-1",
         "lease_until": 63.0, "leased_s": 3.0, "attempts": 1},
        {"event": "job_failed", "id": "failed", "error": "boom",
         "finished_s": 4.0},
    ]
    path = tmp_path / "state" / "queue.jsonl"
    path.parent.mkdir()
    path.write_text("".join(json.dumps(r) + "\n" for r in records))

    queue = make_queue(tmp_path)
    assert {job.id: job.state for job in queue.jobs()} == {
        "done": JobState.DONE, "leased": JobState.RUNNING,
        "queued": JobState.SUBMITTED, "failed": JobState.FAILED}
    assert queue.get("leased").worker == "1:w-0"
    assert queue.get("done").result_path == "r.json"
    assert queue.get("failed").error == "boom"

    assert [job.id for job in queue.recover()] == ["leased"]
    leased = queue.get("leased")
    assert (leased.state, leased.recoveries) == (JobState.SUBMITTED, 1)
    assert leased.worker is None
    assert not any("lease_until" in job.to_dict() for job in queue.jobs())


def test_compact_collapses_terminal_jobs(tmp_path):
    queue = make_queue(tmp_path)
    done = queue.submit(SPEC)
    queue.lease("w0")
    queue.mark_running(done.id)
    queue.complete(done.id, "r.json")
    pending = queue.submit(SPEC)
    before, after = queue.compact()
    assert before == 5 and after == 2  # one snapshot per job

    replayed = make_queue(tmp_path)
    assert replayed.get(done.id).state == JobState.DONE
    assert replayed.get(done.id).result_path == "r.json"
    assert replayed.get(pending.id).state == JobState.SUBMITTED
    # Compaction must not break exactly-once: completion stays refused.
    with pytest.raises(QueueError, match="terminal"):
        replayed.complete(done.id, "again.json")


def test_torn_final_line_does_not_break_replay(tmp_path):
    queue = make_queue(tmp_path)
    job = queue.submit(SPEC)
    queue.lease("w0")
    # Simulate a crash mid-append of the running event.
    text = queue.journal.path.read_text()
    queue.journal.path.write_text(text + '{"event": "job_runn')
    replayed = make_queue(tmp_path)
    assert replayed.get(job.id).state == JobState.LEASED


def test_points_spec_jobs_queue_too(tmp_path):
    queue = make_queue(tmp_path)
    spec = parse_spec({"points": [{"kind": "train", "gpus": 2,
                                   "iterations": 2}]})
    job = queue.submit(spec)
    assert queue.get(job.id).spec == spec
