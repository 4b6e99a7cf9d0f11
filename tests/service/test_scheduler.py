"""End-to-end scheduling: byte-identity, cache hits, exactly-once."""

import json
import time
from collections import Counter

import pytest

from repro.bench.registry import REGISTRY
from repro.runner import OSUPoint, RunnerError
from repro.service import (
    JobState,
    Service,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.jobs import parse_spec
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler


def make_service(tmp_path, **overrides):
    kwargs = dict(state_dir=tmp_path / "state", workers=1)
    kwargs.update(overrides)
    return Service(ServiceConfig(**kwargs))


def run_job(service, client, **submit_kwargs):
    job = client.submit(**submit_kwargs)
    finished = client.wait(job["id"], timeout_s=120.0)
    return finished


def test_job_envelope_byte_identical_to_serial_run(tmp_path):
    service = make_service(tmp_path)
    client = ServiceClient(app=service.app)
    service.start()
    try:
        job = run_job(service, client, experiment="E3", variant="quick")
        assert job["state"] == JobState.DONE
        got = client.result_bytes(job["id"])
    finally:
        service.stop()

    expected = REGISTRY["E3"].run(quick=True)
    expected.meta = {"variant": "quick"}
    assert got == expected.to_json().encode("utf-8")


def test_identical_resubmission_served_from_cache(tmp_path):
    service = make_service(tmp_path)
    client = ServiceClient(app=service.app)
    service.start()
    try:
        first = run_job(service, client, experiment="E3", variant="quick")
        assert first["state"] == JobState.DONE
        assert first["runner"]["executed"] > 0

        second = run_job(service, client, experiment="E3", variant="quick")
        assert second["state"] == JobState.DONE
        # The dedup layer at work: every point resolves from cache.
        assert second["runner"]["executed"] == 0
        assert second["runner"]["cache_hits"] > 0

        assert (client.result_bytes(first["id"])
                == client.result_bytes(second["id"]))
    finally:
        service.stop()


def test_points_job_and_resubmission(tmp_path):
    points = [
        {"kind": "train", "gpus": 2, "iterations": 2},
        {"kind": "osu_allreduce", "gpus": 2, "nbytes": 1024,
         "iterations": 3},
    ]
    service = make_service(tmp_path)
    client = ServiceClient(app=service.app)
    service.start()
    try:
        job = run_job(service, client, points=points)
        assert job["state"] == JobState.DONE
        envelope = client.result(job["id"])
        assert envelope["kind"] == "points"
        summaries = [row["summary"] for row in envelope["rows"]]
        assert summaries[0]["images_per_second"] > 0
        assert summaries[1]["latency_us"] > 0

        again = run_job(service, client, points=points)
        assert again["runner"]["executed"] == 0
        assert (client.result_bytes(job["id"])
                == client.result_bytes(again["id"]))
    finally:
        service.stop()


def test_idle_workers_hand_off_on_submit_and_stop_at_once(tmp_path):
    """An idle worker starts a job the moment it is submitted, and
    stop() wakes it: with poll_s=5 neither waits for the timer."""
    queue = JobQueue(tmp_path / "state")
    scheduler = Scheduler(queue, tmp_path / "results", workers=2,
                          poll_s=5.0)
    scheduler.start()
    try:
        time.sleep(0.2)  # both workers idle, each in a waiting lease
        start = time.monotonic()
        job = queue.submit(parse_spec({"points": [
            {"kind": "osu_allreduce", "gpus": 2, "nbytes": 64,
             "iterations": 1}]}))
        while not job.terminal and time.monotonic() - start < 5.0:
            queue.wait_version(job.id, job.version, timeout_s=0.5)
        assert job.state == JobState.DONE
        assert time.monotonic() - start < 1.0
    finally:
        threads = list(scheduler._threads)
        start = time.monotonic()
        scheduler.stop()
        assert time.monotonic() - start < 1.0
    assert not any(thread.is_alive() for thread in threads)


def test_transient_error_fails_without_requeue(tmp_path):
    service = make_service(tmp_path)
    client = ServiceClient(app=service.app)
    job = client.submit(experiment="E2")

    def explode(job):
        raise ValueError("transient wobble")

    service.scheduler._run_experiment = explode
    service.scheduler._execute(service.queue.lease("w0"))
    # The point budget is the one retry layer: a job error is terminal.
    doc = client.job(job["id"])
    assert doc["state"] == JobState.FAILED
    assert doc["attempts"] == 1
    assert doc["error"] == "ValueError: transient wobble"
    assert service.queue.lease("w0") is None


def test_poison_job_quarantines_without_retry(tmp_path):
    service = make_service(tmp_path)
    client = ServiceClient(app=service.app)
    job = client.submit(experiment="E2")

    def poison(job):
        raise RunnerError("1 point(s) quarantined: boom")

    service.scheduler._run_experiment = poison
    service.scheduler._execute(service.queue.lease("w0"))
    doc = client.job(job["id"])
    assert doc["state"] == JobState.QUARANTINED
    assert doc["attempts"] == 1
    with pytest.raises(ServiceError) as err:
        client.result(job["id"])
    assert err.value.status == 409


@pytest.fixture(params=("local", "fabric"))
def poisoned_service(request, tmp_path, monkeypatch):
    """A running service whose 1 KiB OSU points raise, on either
    backend; yields ``(service, client, runs)``, ``runs`` listing the
    key of every poisoned execution."""
    runs = []
    execute = OSUPoint.execute

    def poisoned(point):
        if point.nbytes == 1024:
            runs.append(point.key())
            raise ValueError(f"poisoned {point.describe()}")
        return execute(point)

    monkeypatch.setattr(OSUPoint, "execute", poisoned)
    service = make_service(tmp_path, backend=request.param)
    if service.fabric is not None:
        service.fabric.spawn = "thread"  # workers see the patched class
    service.start()
    try:
        yield service, ServiceClient(app=service.app), runs
    finally:
        service.stop(drain=True)


@pytest.mark.parametrize("spec", [
    {"experiment": "E3", "variant": "quick"},
    {"points": [{"kind": "osu_allreduce", "gpus": 2, "nbytes": nbytes,
                 "iterations": 2} for nbytes in (2048, 1024)]},
], ids=("experiment", "points"))
def test_poison_point_quarantines_its_job(poisoned_service, spec):
    service, client, runs = poisoned_service
    job = run_job(service, client, **spec)
    assert job["state"] == JobState.QUARANTINED
    assert job["error"].startswith("RunnerError: ")
    assert "ValueError('poisoned " in job["error"]
    # The point budget is the only retry layer: no job-level replay.
    assert runs
    assert max(Counter(runs).values()) <= service.config.point_retries + 1


def test_identical_points_job_reports_its_own_counts(poisoned_service):
    service, client, _runs = poisoned_service
    points = [{"kind": "osu_allreduce", "gpus": 2, "nbytes": 2048,
               "iterations": 2}]
    first = run_job(service, client, points=points)
    assert (first["state"], first["runner"]["executed"]) == (JobState.DONE, 1)
    second = run_job(service, client, points=points)
    assert second["state"] == JobState.DONE
    assert second["runner"]["executed"] == 0
    assert second["runner"]["cache_hits"] == 1


@pytest.mark.chaos
def test_crashed_scheduler_restart_completes_exactly_once(tmp_path):
    # A predecessor process leased the job, started running it, then
    # died without journaling an outcome.
    state_dir = tmp_path / "state"
    crashed = Service(ServiceConfig(state_dir=state_dir, workers=1))
    job = ServiceClient(app=crashed.app).submit(experiment="E3")
    crashed.queue.lease("99999:repro-service-worker-0")
    crashed.queue.mark_running(job["id"])
    del crashed  # simulated crash: no complete/fail ever journaled

    # `repro serve` restarts on the same state dir.
    service = Service(ServiceConfig(state_dir=state_dir, workers=1))
    client = ServiceClient(app=service.app)
    recovered = service.start()
    try:
        assert [j.id for j in recovered] == [job["id"]]
        finished = client.wait(job["id"], timeout_s=120.0)
    finally:
        service.stop()

    assert finished["state"] == JobState.DONE
    assert finished["recoveries"] == 1

    # Exactly once: a single DONE event in the journal, a single
    # result file on disk.
    events = [json.loads(line)["event"]
              for line in (state_dir / "queue.jsonl").read_text()
              .splitlines() if line]
    assert events.count("job_done") == 1
    results = list((state_dir / "results").iterdir())
    assert [p.name for p in results] == [f"{job['id']}.json"]
