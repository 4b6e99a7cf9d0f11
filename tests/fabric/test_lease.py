"""The point queue's leases: grants, heartbeats, expiry, reclaims."""

import threading
import time

import pytest

from repro.fabric import ItemState, PointQueue
from repro.telemetry import to_prometheus
from repro.telemetry.metrics import MetricRegistry

from tests.fabric._points import OkPoint


def make_queue(tmp_path, clock, **kwargs):
    kwargs.setdefault("lease_s", 10.0)
    return PointQueue(tmp_path / "fab", clock=lambda: clock[0], **kwargs)


def enqueue(queue, *tokens):
    return queue.enqueue([OkPoint(token=t) for t in tokens])[1]


def test_grant_stamps_holder_expiry_and_attempt(tmp_path):
    clock = [100.0]
    queue = make_queue(tmp_path, clock, retries=1)
    (item_id,) = enqueue(queue, "a")
    item = queue.lease("w0")
    assert (item.worker, item.attempts, item.lease_until) == ("w0", 1, 110.0)
    clock[0] = 105.0
    queue.fail("w0", item_id, "boom")
    assert (item.worker, item.lease_until) == (None, None)
    assert queue.lease("w1").lease_until == 115.0
    assert (item.worker, item.attempts) == ("w1", 2)


def test_refresh_extends_only_live_leases(tmp_path):
    clock = [0.0]
    queue = make_queue(tmp_path, clock)
    (item_id,) = enqueue(queue, "a")
    queue.lease("w0")
    clock[0] = 8.0
    assert queue.heartbeat("w0", item_id) is True
    assert queue.get(item_id).lease_until == 18.0
    queue.complete("w0", item_id)
    item = queue.get(item_id)
    assert item.worker is None and item.lease_until is None
    # A late heartbeat must not resurrect a finished lease.
    assert queue.heartbeat("w0", item_id) is False
    assert item.lease_until is None


def test_expired_respects_state_skip_and_clock(tmp_path):
    """Only a LEASED item whose deadline has passed is reclaimed."""
    clock = [0.0]
    queue = make_queue(tmp_path, clock)
    done, leased = enqueue(queue, "a", "b")
    queue.lease("w0")
    queue.complete("w0", done)
    queue.lease("w1")
    clock[0] = 10.0  # exactly at the deadline: not lapsed yet
    assert queue.requeue_expired() == []
    clock[0] = 11.0
    assert [item.id for item in queue.requeue_expired()] == [leased]
    assert queue.get(done).state == ItemState.DONE


def test_sweep_reclaims_expired_and_returns_them(tmp_path):
    clock = [0.0]
    queue = make_queue(tmp_path, clock)
    stale, live = enqueue(queue, "a", "b")
    queue.lease("dead")
    queue.lease("alive")
    clock[0] = 8.0
    queue.heartbeat("alive", live)
    clock[0] = 15.0
    touched = queue.requeue_expired()
    assert [item.id for item in touched] == [stale]
    assert queue.get(stale).state == ItemState.PENDING
    assert queue.get(live).worker == "alive"


def test_sweep_recheck_rescues_mid_sweep_heartbeat(tmp_path):
    """The TOCTOU window: a heartbeat landing between the snapshot and
    an item's reclaim turn must rescue that item."""
    clock = [0.0]
    queue = make_queue(tmp_path, clock)
    first, second = enqueue(queue, "a", "b")
    queue.lease("w-first")
    queue.lease("w-second")
    clock[0] = 20.0  # both lapsed; both land in the snapshot

    append = queue.journal.append

    def slow_append(event, **fields):
        append(event, **fields)
        if event == "point_requeued" and fields.get("id") == first:
            # While `first` is being reclaimed (a slow journal write in
            # real life), `second`'s holder heartbeats.
            queue.heartbeat("w-second", second)

    queue.journal.append = slow_append
    touched = queue.requeue_expired()
    assert [item.id for item in touched] == [first]
    item = queue.get(second)
    assert (item.state, item.worker) == (ItemState.LEASED, "w-second")
    assert item.lease_until == 30.0  # still leased, lease refreshed


def test_should_quarantine_counts_recoveries(tmp_path):
    """An item survives ``max_recoveries`` lapsed leases; the next one
    FAILs it as poison."""
    clock = [0.0]
    queue = make_queue(tmp_path, clock, max_recoveries=2)
    (item_id,) = enqueue(queue, "a")
    for cycle in range(3):
        queue.lease(f"dead-{cycle}")
        clock[0] += 11.0
        queue.requeue_expired()
    item = queue.get(item_id)
    assert (item.state, item.recoveries) == (ItemState.FAILED, 2)
    assert item.error == "failed after 3 dead-worker recoveries"


def test_validation(tmp_path):
    with pytest.raises(ValueError, match="lease_s"):
        PointQueue(tmp_path / "fab", lease_s=0.0)
    with pytest.raises(ValueError, match="max_recoveries"):
        PointQueue(tmp_path / "fab", max_recoveries=-1)


def test_reclaim_takes_a_dead_workers_leases_back_at_once(tmp_path):
    """A worker known dead loses its leases without waiting for them
    to lapse, charged as recoveries, and poison past the budget."""
    clock = [0.0]
    registry = MetricRegistry()
    queue = make_queue(tmp_path, clock, max_recoveries=1, registry=registry)
    a, b, c = enqueue(queue, "a", "b", "c")
    queue.lease("dead")
    queue.lease("dead")
    queue.lease("alive")
    assert [item.id for item in queue.reclaim("dead")] == [a, b]
    assert [queue.get(i).state for i in (a, b, c)] == [
        ItemState.PENDING, ItemState.PENDING, ItemState.LEASED]
    assert queue.get(a).recoveries == 1
    assert "dead" not in queue.snapshot()["workers"]
    queue.lease("dead-too")
    queue.reclaim("dead-too")
    item = queue.get(a)
    assert item.state == ItemState.FAILED
    assert item.error == "failed after 2 dead-worker recoveries"
    assert "fabric_requeues_total 3" in to_prometheus(registry)


def test_reclaimed_worker_waiting_for_work_gets_none(tmp_path):
    """A lease request a worker left waiting before it died is not
    granted the next item: it would never run it."""
    clock = [0.0]
    queue = make_queue(tmp_path, clock)
    got = {}
    thread = threading.Thread(
        target=lambda: got.update(item=queue.lease("dead", wait_s=5.0)),
        daemon=True)
    thread.start()
    while "dead" not in queue.workers_seen:
        time.sleep(0.001)
    queue.reclaim("dead")
    (item_id,) = enqueue(queue, "a")
    thread.join(timeout=5.0)
    assert got == {"item": None}
    assert queue.get(item_id).state == ItemState.PENDING
    assert queue.lease("w1").id == item_id
