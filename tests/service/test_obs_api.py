"""The observability surface of the service API.

Covers the flight-recorder route, live job watching (long-poll and
SSE), the stage-latency histograms' Prometheus round trip, and the
acceptance gate that result envelopes are byte-identical whether the
event plane is on or off.
"""

import json
import threading

import pytest

from repro.obs import emitter, reset_emitter
from repro.obs.sse import parse_sse
from repro.service import (
    JobState,
    Service,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    write_result,
)
from repro.telemetry import parse_prometheus


@pytest.fixture(autouse=True)
def fresh_emitter():
    import os

    saved = {key: os.environ.pop(key, None)
             for key in ("REPRO_OBS", "REPRO_OBS_DIR")}
    reset_emitter()
    try:
        yield
    finally:
        reset_emitter()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@pytest.fixture()
def service(tmp_path):
    return Service(ServiceConfig(state_dir=tmp_path / "state"))


@pytest.fixture()
def client(service):
    return ServiceClient(app=service.app)


def finish_by_hand(service, job_id, payload='{"schema_version": 2}\n'):
    path = service.config.results_dir / f"{job_id}.json"
    write_result(path, payload)
    service.queue.lease("w0")
    service.queue.mark_running(job_id)
    service.queue.complete(job_id, str(path))
    return payload.encode("utf-8")


# -- GET /v1/events ---------------------------------------------------------

def test_events_route_pages_the_flight_recorder(client):
    job = client.submit(experiment="E6")
    page = client.events()
    names = [r["event"] for r in page["events"]]
    assert "job_submitted" in names
    submitted = next(r for r in page["events"]
                     if r["event"] == "job_submitted")
    assert submitted["ctx"]["job_id"] == job["id"]
    assert page["last_seq"] >= submitted["seq"]

    again = client.events(since=page["last_seq"])
    # Only the traffic caused by this request itself (http_request
    # debug events) can appear past the cursor.
    assert all(r["event"] == "http_request" for r in again["events"])


def test_events_route_validates_query(client):
    with pytest.raises(ServiceError) as err:
        client.transport.json("GET", "/v1/events?since=banana")
    assert err.value.status == 400 and err.value.code == "bad_query"


def test_every_request_carries_a_request_id(client):
    client.healthz()
    http = [r for r in emitter().recorder.since(0)
            if r["event"] == "http_request"]
    assert http
    assert all(r["ctx"].get("request_id") for r in http)


# -- job progress and long-polling ------------------------------------------

def test_progress_lands_on_the_job_doc(client, service):
    job = client.submit(experiment="E6")
    before = client.job(job["id"])
    assert before["progress"] == {}
    service.queue.lease("w0")
    service.queue.mark_running(job["id"])
    service.queue.set_progress(job["id"], 2, 8, point="p2", cached=True)
    service.queue.set_progress(job["id"], 3, 8, point="p3")
    doc = client.job(job["id"])
    assert doc["progress"]["done"] == 3 and doc["progress"]["total"] == 8
    assert doc["progress"]["cached"] == 1  # accumulated across calls
    assert doc["progress"]["point"] == "p3"
    assert doc["version"] > before["version"]


def test_progress_never_resurrects_a_terminal_job(client, service):
    job = client.submit(experiment="E6")
    finish_by_hand(service, job["id"])
    service.queue.set_progress(job["id"], 1, 8)
    assert client.job(job["id"])["progress"] == {}


def test_long_poll_returns_immediately_when_behind(client):
    job = client.submit(experiment="E6")
    doc = client.transport.json(
        "GET", f"/v1/jobs/{job['id']}/events?poll=1&since=-1&timeout=5")
    assert doc["changed"] is True
    assert doc["job"]["id"] == job["id"]


def test_long_poll_times_out_unchanged(client):
    job = client.submit(experiment="E6")
    version = client.job(job["id"])["version"]
    doc = client.transport.json(
        "GET", f"/v1/jobs/{job['id']}/events?poll=1"
               f"&since={version}&timeout=0.05")
    assert doc["changed"] is False and doc["job"]["version"] == version


def test_long_poll_wakes_on_transition(client, service):
    job = client.submit(experiment="E6")
    version = client.job(job["id"])["version"]
    timer = threading.Timer(0.1, service.queue.lease, args=("w0",))
    timer.start()
    try:
        doc = client.transport.json(
            "GET", f"/v1/jobs/{job['id']}/events?poll=1"
                   f"&since={version}&timeout=10")
    finally:
        timer.join()
    assert doc["changed"] is True
    assert doc["job"]["state"] == JobState.LEASED


def test_long_poll_unknown_job_404(client):
    with pytest.raises(ServiceError) as err:
        client.transport.json("GET", "/v1/jobs/nope/events?poll=1")
    assert err.value.status == 404


def test_client_follow_yields_docs_until_terminal(client, service):
    job = client.submit(experiment="E6")
    finish_by_hand(service, job["id"])
    docs = list(client.follow(job["id"], timeout_s=10.0))
    assert docs  # at least the terminal doc
    assert docs[-1]["state"] == JobState.DONE


def test_follow_long_polls_when_the_stream_ends_early(service, monkeypatch):
    from repro.fabric.transport import InProcessTransport
    from repro.obs import sse

    job = ServiceClient(app=service.app).submit(experiment="E6")
    service.queue.lease("w0")
    service.queue.mark_running(job["id"])
    running = service.queue.doc(job["id"])
    path = service.config.results_dir / f"{job['id']}.json"
    write_result(path, '{"schema_version": 2}\n')
    service.queue.complete(job["id"], str(path))
    # A stream that ends without the terminal state frame.
    frames = (sse.format_event(running, id=running["version"], event="state")
              + sse.format_event({"id": job["id"], "state": JobState.DONE},
                                 event="end"))
    monkeypatch.setattr(sse, "follow", lambda url, **kwargs: iter(
        sse.parse_sse(frames.decode("utf-8").split("\n"))))
    client = ServiceClient(url="http://127.0.0.1:9")
    client.transport = InProcessTransport(service.app)
    docs = list(client.follow(job["id"], timeout_s=10.0))
    assert [doc["state"] for doc in docs] == [JobState.RUNNING, JobState.DONE]


# -- the SSE stream ---------------------------------------------------------

def sse_events(client, job_id, query=""):
    raw = client.transport.bytes("GET", f"/v1/jobs/{job_id}/events{query}")
    return parse_sse(raw.decode("utf-8").split("\n"))


def test_sse_stream_of_a_finished_job(client, service):
    job = client.submit(experiment="E6")
    payload = finish_by_hand(service, job["id"])
    events = sse_events(client, job["id"])
    assert [e.event for e in events] == ["state", "result", "end"]
    state = events[0].json()
    assert state["id"] == job["id"] and state["state"] == JobState.DONE
    assert events[0].retry_ms == 2000
    assert events[0].id == str(state["version"])
    # The acceptance bar: the result frame is the exact envelope bytes.
    assert events[1].data.encode("utf-8") == payload
    assert events[2].json()["state"] == JobState.DONE


def test_sse_result_frame_is_byte_exact_for_multiline_envelopes(
        client, service):
    job = client.submit(experiment="E6")
    payload = finish_by_hand(
        service, job["id"],
        payload=json.dumps({"schema_version": 2, "results": [1, 2]},
                           indent=1))
    events = sse_events(client, job["id"])
    assert events[1].event == "result"
    assert events[1].data.encode("utf-8") == payload


def test_sse_last_event_id_resumes_past_seen_versions(client, service):
    job = client.submit(experiment="E6")
    finish_by_hand(service, job["id"])
    version = client.job(job["id"])["version"]
    response = service.app.handle(
        "GET", f"/v1/jobs/{job['id']}/events",
        {"last-event-id": str(version)}, b"")
    raw = b"".join(response[2])
    events = parse_sse(raw.decode("utf-8").split("\n"))
    # Already caught up: no state replay, straight to result + end.
    assert [e.event for e in events] == ["result", "end"]


def test_sse_stream_ends_on_the_terminal_state(client, service):
    job = client.submit(experiment="E6")
    service.queue.lease("w0")
    service.queue.mark_running(job["id"])
    frames = iter(service.app.handle(
        "GET", f"/v1/jobs/{job['id']}/events", {}, b"")[2])
    first = next(frames)
    # The scheduler finishes the job while the first frame is in flight.
    path = service.config.results_dir / f"{job['id']}.json"
    write_result(path, '{"schema_version": 2}\n')
    service.queue.complete(job["id"], str(path))
    events = parse_sse((first + b"".join(frames)).decode("utf-8").split("\n"))
    assert [(e.event, None if e.event == "result" else e.json()["state"])
            for e in events] == [("state", JobState.RUNNING),
                                 ("state", JobState.DONE),
                                 ("result", None),
                                 ("end", JobState.DONE)]


def test_sse_heartbeats_while_nothing_changes(client, service):
    job = client.submit(experiment="E6")
    frames = service.app.handle(
        "GET", f"/v1/jobs/{job['id']}/events?heartbeat=0.05", {}, b"")[2]
    first = next(iter(frames))
    comment = next(iter(frames))
    frames.close()
    events = parse_sse((first + comment).decode("utf-8").split("\n"))
    assert events[0].event == "state"
    assert not events[1:]  # the keep-alive is a comment, not an event


# -- stage-latency histograms -----------------------------------------------

def test_stage_histograms_round_trip_through_prometheus(client, service):
    job = client.submit(experiment="E6")
    finish_by_hand(service, job["id"])
    doc = parse_prometheus(client.metrics())
    assert doc["types"]["service_job_stage_seconds"] == "histogram"
    for stage in ("submit_to_lease", "lease_to_start",
                  "start_to_complete"):
        count = doc["samples"][("service_job_stage_seconds_count",
                                (("stage", stage),))]
        assert count == 1.0, stage
    bucket = doc["samples"][("service_job_stage_seconds_bucket",
                             (("stage", "submit_to_lease"),
                              ("le", "+Inf")))]
    assert bucket == 1.0


# -- byte identity with the event plane off ---------------------------------

def run_real_job(tmp_path, name, enabled):
    from repro.obs import configure

    configure(tmp_path / name / "obs", enabled=enabled)
    service = Service(ServiceConfig(state_dir=tmp_path / name, workers=1))
    client = ServiceClient(app=service.app)
    service.start()
    try:
        job = client.submit(experiment="E3", variant="quick")
        done = client.wait(job["id"], timeout_s=120.0)
        assert done["state"] == JobState.DONE
        return client.result_bytes(job["id"])
    finally:
        service.stop()


def test_envelopes_identical_with_obs_on_and_off(tmp_path):
    with_obs = run_real_job(tmp_path, "on", enabled=True)
    reset_emitter()
    without = run_real_job(tmp_path, "off", enabled=False)
    assert with_obs == without
    assert not (tmp_path / "off" / "obs").exists()
