"""The pull worker against an in-process coordinator (no sockets)."""

import base64
import json
import threading
import time

import pytest

from repro.fabric import (
    FabricClient,
    FabricCoordinator,
    FabricWorker,
    InProcessTransport,
    ItemState,
)
from repro.fabric.worker import (
    PayloadError,
    decode_payload,
    encode_payload,
    worker_id,
)
from repro.obs import ManualClock
from repro.telemetry import to_prometheus
from repro.telemetry.metrics import MetricRegistry

from tests.fabric._points import FailPoint, OkPoint, UnpicklablePoint


def make_fabric(tmp_path, **kwargs):
    coordinator = FabricCoordinator(tmp_path / "fab", **kwargs)
    client = FabricClient(InProcessTransport(coordinator.app))
    return coordinator, client


def test_payload_codec_round_trips():
    point = OkPoint(token="abc")
    assert decode_payload(encode_payload(point)) == point


def test_keyed_payload_signs_and_verifies():
    point = OkPoint(token="abc")
    blob = encode_payload(point, key="sekrit")
    assert decode_payload(blob, key="sekrit") == point


def test_keyed_decode_rejects_tampering_before_unpickling():
    blob = encode_payload(OkPoint(token="abc"), key="sekrit")
    raw = bytearray(base64.b64decode(blob))
    raw[-1] ^= 0x01  # flip one bit of the pickled body
    tampered = base64.b64encode(bytes(raw)).decode("ascii")
    with pytest.raises(PayloadError, match="signature"):
        decode_payload(tampered, key="sekrit")
    # Unsigned and wrong-key blobs never reach pickle.loads either.
    with pytest.raises(PayloadError):
        decode_payload(encode_payload(OkPoint(token="abc")), key="sekrit")
    with pytest.raises(PayloadError):
        decode_payload(blob, key="wrong")
    with pytest.raises(PayloadError, match="too short"):
        decode_payload(base64.b64encode(b"x").decode("ascii"), key="sekrit")


def test_token_secured_fabric_round_trips(tmp_path):
    """With a token both directions sign payloads and auth is enforced."""
    coordinator = FabricCoordinator(tmp_path / "fab", token="sekrit")
    _, (item_id,) = coordinator.queue.enqueue([OkPoint(token="abc")])
    client = FabricClient(InProcessTransport(coordinator.app,
                                             token="sekrit"))
    worker = FabricWorker(client, worker="w0")
    assert worker.run_one() is True
    assert coordinator.queue.get(item_id).state == ItemState.DONE
    assert coordinator.queue.release(item_id)["squared"] == 9


def test_wrong_token_is_rejected_with_constant_time_compare(tmp_path):
    from repro.fabric import ApiError

    coordinator = FabricCoordinator(tmp_path / "fab", token="sekrit")
    coordinator.queue.enqueue([OkPoint(token="abc")])
    client = FabricClient(InProcessTransport(coordinator.app,
                                             token="wrong"))
    with pytest.raises(ApiError) as err:
        client.lease("w0")
    assert err.value.status == 401


def test_worker_id_names_host_and_pid():
    import os
    import socket

    assert worker_id() == f"{socket.gethostname()}:{os.getpid()}"


def test_run_one_executes_and_completes(tmp_path):
    coordinator, client = make_fabric(tmp_path)
    _, (item_id,) = coordinator.queue.enqueue([OkPoint(token="abc")])
    registry = MetricRegistry()
    worker = FabricWorker(client, worker="w0", registry=registry)
    assert worker.run_one() is True
    assert worker.done == 1
    item = coordinator.queue.get(item_id)
    assert item.state == ItemState.DONE and item.completed_by == "w0"
    assert coordinator.queue.release(item_id)["squared"] == 9
    assert 'fabric_worker_points_total{status="done"} 1' \
        in to_prometheus(registry)
    assert worker.run_one() is False  # drained


def test_worker_reports_failures(tmp_path):
    coordinator, client = make_fabric(tmp_path, retries=0)
    coordinator.queue.enqueue([FailPoint(token="bad")])
    worker = FabricWorker(client, worker="w0")
    assert worker.run_one() is True
    assert (worker.done, worker.failed) == (0, 1)
    item = coordinator.queue.items()[0]
    assert item.state == ItemState.FAILED
    # The coordinator names the point; the worker reports only its error.
    assert item.error == "ValueError('poison bad')"


class _TamperingClient(FabricClient):
    """Flips one bit of the first leased point's signed payload."""

    tampered = False

    def lease(self, worker, **kwargs):
        doc = super().lease(worker, **kwargs)
        if doc["item"] is not None and not self.tampered:
            self.tampered = True
            raw = bytearray(base64.b64decode(doc["point"]))
            raw[-1] ^= 0x01
            doc["point"] = base64.b64encode(bytes(raw)).decode("ascii")
        return doc


@pytest.mark.parametrize("token, client_type, point, error", (
    (None, FabricClient, UnpicklablePoint(token="u"),
     "ValueError('cannot unpickle u')"),
    ("sekrit", _TamperingClient, OkPoint(token="t"),
     "PayloadError('payload signature mismatch')"),
), ids=("unpicklable", "badly-signed"))
def test_undecodable_point_is_reported_and_the_worker_pulls_on(
        tmp_path, token, client_type, point, error):
    coordinator = FabricCoordinator(tmp_path / "fab", retries=0, token=token)
    _, (bad, good) = coordinator.queue.enqueue([point, OkPoint(token="ok")])
    coordinator.queue.drain()
    worker = FabricWorker(
        client_type(InProcessTransport(coordinator.app, token=token)),
        worker="w0", poll_s=0.01)
    thread = threading.Thread(target=worker.run_forever, daemon=True)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    item = coordinator.queue.get(bad)
    assert (item.state, item.error, item.recoveries) == (
        ItemState.FAILED, error, 0)
    assert coordinator.queue.get(good).state == ItemState.DONE
    assert (worker.done, worker.failed) == (1, 1)


def test_run_forever_drains_on_coordinator_shutdown(tmp_path):
    coordinator, client = make_fabric(tmp_path)
    coordinator.queue.enqueue([OkPoint(token=t) for t in ("a", "bb")])
    coordinator.queue.drain()  # empty queue + draining => shutdown hint
    worker = FabricWorker(client, worker="w0", poll_s=0.01)
    done = worker.run_forever()
    assert done == 2
    assert all(i.state == ItemState.DONE for i in coordinator.queue.items())


def test_stop_is_a_graceful_drain(tmp_path):
    coordinator, client = make_fabric(tmp_path)
    worker = FabricWorker(client, worker="w0", poll_s=0.01)
    thread = threading.Thread(target=worker.run_forever, daemon=True)
    thread.start()
    worker.stop()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_lost_lease_result_ships_as_late_completion(tmp_path):
    coordinator, client = make_fabric(tmp_path)
    _, (item_id,) = coordinator.queue.enqueue([OkPoint(token="abc")])
    worker = FabricWorker(client, worker="w0")
    doc = client.lease("w0")
    # Simulate the coordinator reclaiming our lease mid-run.
    with coordinator.queue.lock:
        coordinator.queue._requeue(coordinator.queue.get(item_id),
                                   recovered=True)
    other = client.lease("w1")
    assert other["item"]["id"] == item_id
    worker._run_one(doc)
    item = coordinator.queue.get(item_id)
    assert item.state == ItemState.DONE
    assert item.completed_by == "w0"  # late, but accepted and stored
    assert coordinator.queue.release(item_id)["squared"] == 9


def _lease_body(**fields) -> bytes:
    return json.dumps({"worker": "w0", **fields}).encode("utf-8")


def test_reports_about_an_item_that_left_are_refused(tmp_path):
    """Once a finished item is released it is gone: a late report gets
    404 ``unknown_item`` (``/heartbeat``: not ok), and nothing is
    journaled or cached for it."""
    from repro.runner.cache import ResultCache

    cache = ResultCache(directory=tmp_path / "cache")
    coordinator, _ = make_fabric(tmp_path, cache=cache)
    point = OkPoint(token="abc")
    _, (item_id,) = coordinator.queue.enqueue([point])
    coordinator.queue.lease("w0")
    coordinator.queue.fail("w0", item_id, "boom")  # retries=1: requeued
    coordinator.queue.lease("w0")
    coordinator.queue.fail("w0", item_id, "boom")  # FAILED
    coordinator.queue.release(item_id)
    records = coordinator.queue.journal.path.read_text()
    for verb, fields in (
            ("complete", {"result": encode_payload({"v": 1})}),
            ("fail", {"error": "late boom"})):
        status, _, data = coordinator.app.handle(
            "POST", f"/v1/fabric/{verb}", {},
            _lease_body(id=item_id, **fields))
        assert status == 404
        assert json.loads(data)["error"]["code"] == "unknown_item"
    status, _, data = coordinator.app.handle(
        "POST", "/v1/fabric/heartbeat", {}, _lease_body(id=item_id))
    assert (status, json.loads(data)) == (200, {"ok": False})
    assert coordinator.queue.journal.path.read_text() == records
    assert cache.get(point.key()) is None


@pytest.mark.parametrize("wait_s", ("x", -1, True))
def test_lease_route_rejects_a_bad_wait(tmp_path, wait_s):
    coordinator, _ = make_fabric(tmp_path)
    status, _, data = coordinator.app.handle(
        "POST", "/v1/fabric/lease", {}, _lease_body(wait_s=wait_s))
    assert status == 400
    assert json.loads(data)["error"]["code"] == "bad_request"


@pytest.mark.parametrize("asked", (300, "x", -5))
def test_lease_length_is_the_coordinators(tmp_path, asked):
    """Whatever a worker asks for, a lease and each of its heartbeats
    run for the coordinator's ``lease_s``."""
    clock = ManualClock(wall_s=1000.0)
    coordinator, _ = make_fabric(tmp_path, lease_s=30.0, clock=clock)
    _, (item_id,) = coordinator.queue.enqueue([OkPoint(token="a")])
    status, _, data = coordinator.app.handle(
        "POST", "/v1/fabric/lease", {}, _lease_body(lease_s=asked))
    doc = json.loads(data)
    assert status == 200 and doc["item"]["id"] == item_id
    assert doc["lease_s"] == 30.0
    assert doc["item"]["lease_until"] - clock.wall() == 30.0
    clock.advance(20.0)
    status, _, data = coordinator.app.handle(
        "POST", "/v1/fabric/heartbeat", {},
        _lease_body(id=item_id, lease_s=asked))
    assert status == 200 and json.loads(data) == {"ok": True}
    assert coordinator.queue.get(item_id).lease_until - clock.wall() == 30.0


def test_lease_route_clamps_the_wait(tmp_path, monkeypatch):
    import repro.fabric.runner as fabric_runner

    monkeypatch.setattr(fabric_runner, "LEASE_WAIT_CAP_S", 0.2)
    coordinator, _ = make_fabric(tmp_path)
    start = time.monotonic()
    status, _, data = coordinator.app.handle(
        "POST", "/v1/fabric/lease", {}, _lease_body(wait_s=60))
    assert status == 200 and json.loads(data)["item"] is None
    assert 0.2 <= time.monotonic() - start < 1.0


def test_waiting_lease_route_answers_shutdown_on_drain(tmp_path):
    coordinator, _ = make_fabric(tmp_path)
    got = {}

    def lease():
        got["response"] = coordinator.app.handle(
            "POST", "/v1/fabric/lease", {}, _lease_body(wait_s=5))
        got["at"] = time.monotonic()

    thread = threading.Thread(target=lease, daemon=True)
    thread.start()
    time.sleep(0.1)
    drained = time.monotonic()
    coordinator.close()
    thread.join(timeout=5.0)
    status, _, data = got["response"]
    assert status == 200
    assert json.loads(data) == {"item": None, "point": None,
                                "shutdown": True}
    assert got["at"] - drained < 1.0
