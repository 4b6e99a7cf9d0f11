"""The coordinator's point queue: leases, exactly-once, recovery."""

import json
import threading
import time

import pytest

from repro.fabric import ItemState, PointQueue, PointQueueError
from repro.runner.fsio import LocalFS
from repro.telemetry.metrics import MetricRegistry

from tests.fabric._points import OkPoint


def make_queue(tmp_path, **kwargs):
    kwargs.setdefault("lease_s", 10.0)
    kwargs.setdefault("clock", None)
    clock = kwargs.pop("clock")
    if clock is None:
        clock = [0.0]
    return PointQueue(tmp_path / "fab", clock=lambda: clock[0],
                      **kwargs), clock


def points(*tokens):
    return [OkPoint(token=t) for t in tokens]


def journal_events(queue, event=None):
    lines = queue.journal.path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    if event is not None:
        records = [r for r in records if r["event"] == event]
    return records


def test_enqueue_lease_fifo_and_complete(tmp_path):
    queue, _ = make_queue(tmp_path)
    batch, ids = queue.enqueue(points("a", "b"))
    assert ids == ["0:0", "0:1"]
    first = queue.lease("w0")
    assert first.id == "0:0" and first.state == ItemState.LEASED
    assert first.attempts == 1
    assert queue.point(first.id).token == "a"
    assert queue.complete("w0", first.id) == "done"
    assert queue.get(first.id).completed_by == "w0"
    assert queue.lease("w0").id == "0:1"
    assert queue.lease("w0") is None  # drained


def test_enqueue_dedups_by_key_across_batches(tmp_path):
    queue, _ = make_queue(tmp_path)
    _, first_ids = queue.enqueue(points("a"))
    _, second_ids = queue.enqueue(points("a", "b"))
    assert second_ids[0] == first_ids[0]  # same key attaches, no dup
    assert len(queue.items()) == 2
    assert len(journal_events(queue, "point_enqueued")) == 2


def test_finished_key_enqueues_afresh(tmp_path):
    """Dedup attaches only to a PENDING or LEASED item: once the item
    is DONE or FAILED, the same key gets a new item."""
    queue, _ = make_queue(tmp_path, retries=0)
    _, (done,) = queue.enqueue(points("a"))
    queue.complete("w0", queue.lease("w0").id)
    _, (failed,) = queue.enqueue(points("b"))
    queue.fail("w0", queue.lease("w0").id, "boom")
    _, again = queue.enqueue(points("a", "b"))
    assert set(again).isdisjoint({done, failed})
    assert [queue.lease("w0").id for _ in again] == again


def test_heartbeat_refuses_foreign_and_unknown(tmp_path):
    queue, clock = make_queue(tmp_path)
    _, (item_id,) = queue.enqueue(points("a"))
    queue.lease("w0")
    assert queue.heartbeat("w0", item_id) is True
    assert queue.heartbeat("other", item_id) is False
    assert queue.heartbeat("w0", "9:9") is False


def test_complete_classifies_late_and_duplicate(tmp_path):
    registry = MetricRegistry()
    queue, clock = make_queue(tmp_path, registry=registry)
    _, (item_id,) = queue.enqueue(points("a"))
    queue.lease("w0")
    clock[0] = 50.0  # w0's lease lapses...
    queue.requeue_expired()
    queue.lease("w1")  # ...and w1 picks the point up
    # w0 finishes anyway: accepted as "late" (deterministic bytes,
    # already durably cached by the coordinator).
    assert queue.complete("w0", item_id) == "late"
    assert queue.complete("w1", item_id) == "duplicate"
    # Exactly one point_done no matter how many completions raced.
    assert len(journal_events(queue, "point_done")) == 1


def test_fail_retries_then_goes_terminal(tmp_path):
    queue, _ = make_queue(tmp_path, retries=1)
    _, (item_id,) = queue.enqueue(points("a"))
    queue.lease("w0")
    assert queue.fail("w0", item_id, "boom") == ItemState.PENDING
    queue.lease("w0")  # attempt 2 (the retry)
    assert queue.fail("w0", item_id, "boom again") == ItemState.FAILED
    assert queue.get(item_id).error == "boom again"
    assert len(journal_events(queue, "point_failed")) == 1


def test_dead_worker_recovery_does_not_spend_a_retry(tmp_path):
    """A lapsed lease charges ``max_recoveries`` only, as the pool
    replays crash victims uncharged: ``retries`` counts reported
    failures."""
    queue, clock = make_queue(tmp_path, retries=1)
    _, (item_id,) = queue.enqueue(points("a"))
    queue.lease("dead")
    clock[0] = 50.0
    queue.requeue_expired()
    queue.lease("w1")
    assert queue.fail("w1", item_id, "boom") == ItemState.PENDING
    queue.lease("w1")
    assert queue.fail("w1", item_id, "boom again") == ItemState.FAILED
    item = queue.get(item_id)
    assert (item.attempts, item.recoveries) == (3, 1)


def test_fail_from_stale_worker_is_a_noop(tmp_path):
    """A late failure report from a reclaimed lease must not requeue
    (double-lease) or spuriously FAIL the new holder's live item."""
    queue, clock = make_queue(tmp_path, retries=0)
    _, (item_id,) = queue.enqueue(points("a"))
    queue.lease("w0")
    clock[0] = 50.0  # w0's lease lapses...
    queue.requeue_expired()
    queue.lease("w1")  # ...and w1 picks the point up
    assert queue.fail("w0", item_id, "late boom") == ItemState.LEASED
    item = queue.get(item_id)
    assert item.state == ItemState.LEASED and item.worker == "w1"
    assert journal_events(queue, "point_failed") == []
    # The live holder's own report still lands.
    assert queue.fail("w1", item_id, "real boom") == ItemState.FAILED
    assert queue.get(item_id).error == "real boom"


def test_fail_from_never_leased_worker_is_a_noop(tmp_path):
    queue, _ = make_queue(tmp_path)
    _, (item_id,) = queue.enqueue(points("a"))
    assert queue.fail("ghost", item_id, "boom") == ItemState.PENDING
    assert queue.get(item_id).state == ItemState.PENDING
    assert journal_events(queue, "point_requeued") == []


def test_enqueue_stamps_batch_scoped_retry_budget(tmp_path):
    """Per-batch retries travel on the items, not on shared queue state."""
    queue, _ = make_queue(tmp_path, retries=0)
    _, (item_id,) = queue.enqueue(points("a"), retries=1, timeout_s=7.5)
    item = queue.get(item_id)
    assert item.retries == 1 and item.timeout_s == 7.5
    assert item.to_dict()["timeout_s"] == 7.5  # rides the lease response
    queue.lease("w0")
    assert queue.fail("w0", item_id, "boom") == ItemState.PENDING
    queue.lease("w0")
    assert queue.fail("w0", item_id, "boom") == ItemState.FAILED
    assert queue.retries == 0  # queue default untouched


def test_requeue_expired_recovers_then_quarantines(tmp_path):
    queue, clock = make_queue(tmp_path, max_recoveries=1)
    _, (item_id,) = queue.enqueue(points("a"))
    for cycle, start in enumerate((0.0, 100.0)):
        clock[0] = start
        queue.lease(f"dead-{cycle}")
        clock[0] = start + 50.0
        touched = queue.requeue_expired()
        assert [i.id for i in touched] == [item_id]
    item = queue.get(item_id)
    assert item.state == ItemState.FAILED  # poison after 2nd recovery
    assert "dead-worker recoveries" in item.error


def test_mid_sweep_heartbeat_rescues_item(tmp_path):
    """Fabric-side TOCTOU regression: a heartbeat that lands while the
    sweep is reclaiming an *earlier* item rescues the later one."""
    queue, clock = make_queue(tmp_path)
    _, (first, second) = queue.enqueue(points("a", "b"))
    queue.lease("w-first")
    queue.lease("w-second")
    clock[0] = 50.0  # both lapsed

    original_append = queue.journal.append
    state = {"fired": False}

    def slow_append(event, **fields):
        original_append(event, **fields)
        if event == "point_requeued" and not state["fired"]:
            state["fired"] = True
            # Deliberately slow sweep: w-second's heartbeat arrives
            # during the first reclaim's journal write (RLock allows
            # the same-thread reentry the HTTP thread would do).
            queue.heartbeat("w-second", second)

    queue.journal.append = slow_append
    touched = queue.requeue_expired()
    assert [i.id for i in touched] == [first]
    assert queue.get(second).state == ItemState.LEASED
    assert queue.get(second).worker == "w-second"


def test_unknown_item_raises(tmp_path):
    queue, _ = make_queue(tmp_path)
    with pytest.raises(PointQueueError, match="unknown item"):
        queue.get("9:9")
    with pytest.raises(PointQueueError, match="unknown item"):
        queue.point("9:9")


def test_snapshot_counts_states_and_workers(tmp_path):
    queue, clock = make_queue(tmp_path)
    _, (a, b) = queue.enqueue(points("a", "b"))
    queue.lease("w0")
    queue.complete("w0", a)
    snap = queue.snapshot()
    assert snap["items"] == 2
    assert snap["states"][ItemState.DONE] == 1
    assert snap["states"][ItemState.PENDING] == 1
    assert "w0" in snap["workers"]


def test_fabric_metrics_track_protocol(tmp_path):
    registry = MetricRegistry()
    queue, clock = make_queue(tmp_path, registry=registry)
    _, (a, b) = queue.enqueue(points("a", "b"))
    queue.lease("w0")
    queue.heartbeat("w0", a)
    queue.complete("w0", a)
    from repro.telemetry import to_prometheus

    text = to_prometheus(registry)
    assert "fabric_leases_total 1" in text
    assert "fabric_heartbeats_total 1" in text
    assert 'fabric_completions_total{status="done"} 1' in text
    assert "fabric_queue_depth 1" in text


def test_requeued_items_keep_their_place_in_lease_order(tmp_path):
    """Leases follow enqueue order; an item back from a failure report
    or an expired lease goes ahead of everything enqueued after it."""
    queue, clock = make_queue(tmp_path)
    _, (a, b, c) = queue.enqueue(points("a", "b", "c"))
    assert [queue.lease(w).id for w in ("w0", "w1")] == [a, b]
    assert queue.fail("w0", a, "boom") == ItemState.PENDING
    clock[0] += 11.0
    assert [item.id for item in queue.requeue_expired()] == [b]
    _, (d,) = queue.enqueue(points("d"))
    assert [queue.lease("w2").id for _ in range(4)] == [a, b, c, d]
    assert queue.lease("w2") is None


@pytest.mark.parametrize("wake", ("enqueue", "drain"))
def test_waiting_lease_wakes_at_once(tmp_path, wake):
    """A lease waiting up to 5 s returns the moment an item is enqueued
    (with that item) or the queue drains (with nothing)."""
    queue, _ = make_queue(tmp_path)
    got = {}

    def lease():
        got["item"] = queue.lease("w0", wait_s=5.0)
        got["at"] = time.monotonic()

    thread = threading.Thread(target=lease, daemon=True)
    thread.start()
    time.sleep(0.1)
    woken = time.monotonic()
    if wake == "enqueue":
        _, (expected,) = queue.enqueue(points("a"))
    else:
        queue.drain()
        expected = None
    thread.join(timeout=5.0)
    assert (got["item"].id if got["item"] is not None else None) == expected
    assert got["at"] - woken < 1.0


def test_idle_waiting_lease_times_out_empty(tmp_path):
    queue, _ = make_queue(tmp_path)
    start = time.monotonic()
    assert queue.lease("w0", wait_s=0.2) is None
    assert 0.2 <= time.monotonic() - start < 1.0


class _NoSyncFS(LocalFS):
    """Journal appends without fsync: thousands of items in a second."""

    def fsync(self, fileno):
        pass


def _idle_lease_us(tmp_path, batches):
    """Best-of-300 idle lease time after ``batches`` finished batches."""
    queue = PointQueue(tmp_path / f"fab-{batches}", registry=MetricRegistry(),
                       fs=_NoSyncFS())
    for b in range(batches):
        _, ids = queue.enqueue(points(*(f"{b}-{k}" for k in range(4))))
        for _ in ids:
            queue.complete("w0", queue.lease("w0").id)
        for item_id in ids:
            queue.release(item_id)
    best = float("inf")
    for _ in range(300):
        start = time.perf_counter()
        assert queue.lease("w0") is None
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def test_idle_lease_cost_does_not_grow_with_finished_items(tmp_path):
    """Finished items leave the hot path: an idle lease after 500
    batches costs what it costs after 10."""
    few = _idle_lease_us(tmp_path, 10)
    many = _idle_lease_us(tmp_path, 500)
    assert many <= 2.0 * few + 5.0, (few, many)


def test_held_state_is_bounded_by_claims(tmp_path):
    """Released finished items leave the queue: after 500 four-point
    batches it holds nothing, and the journal still holds one
    ``point_done`` per enqueued id."""
    queue = PointQueue(tmp_path / "fab", registry=MetricRegistry(),
                       fs=_NoSyncFS())
    enqueued = []
    for b in range(500):
        _, ids = queue.enqueue(points(*(f"{b}-{k}" for k in range(4))))
        enqueued += ids
        for _ in ids:
            item = queue.lease("w0")
            queue.complete("w0", item.id, {"token": item.describe})
        for item_id in ids:
            assert queue.release(item_id) is not None
    assert queue.items() == []
    assert queue.snapshot()["items"] == 0
    assert queue._points == {} and queue._seq == {}
    done = [record["id"] for record in journal_events(queue, "point_done")]
    assert sorted(done) == sorted(enqueued)
    assert len(set(enqueued)) == 2000


def test_release_hands_over_the_held_value_then_lets_go(tmp_path):
    queue, _ = make_queue(tmp_path)
    _, (item_id,) = queue.enqueue(points("a"))
    _, (again,) = queue.enqueue(points("a"))  # dedup: a second claim
    assert again == item_id and queue.get(item_id).claims == 2
    queue.complete("w0", queue.lease("w0").id, {"v": 1})
    assert queue.get(item_id).to_dict().keys().isdisjoint({"value", "point"})
    assert queue.release(item_id) == {"v": 1}
    assert queue.get(item_id).state == ItemState.DONE  # still claimed
    assert queue.release(item_id) == {"v": 1}
    assert queue.items() == []
    with pytest.raises(PointQueueError, match="unknown item"):
        queue.release(item_id)


def test_release_cancels_a_pending_item_nobody_claims(tmp_path):
    queue, _ = make_queue(tmp_path)
    _, (a, b) = queue.enqueue(points("a", "b"))
    assert queue.release(a) is None
    (failed,) = journal_events(queue, "point_failed")
    assert failed["id"] == a and failed["error"].startswith("cancelled")
    assert [item.id for item in queue.items()] == [b]
    assert queue.lease("w0").id == b  # the stale heap entry is skipped


def test_unclaimed_leased_item_runs_on_then_leaves(tmp_path):
    queue, _ = make_queue(tmp_path)
    _, (item_id,) = queue.enqueue(points("a"))
    queue.lease("w0")
    assert queue.release(item_id) is None
    assert queue.get(item_id).state == ItemState.LEASED
    with pytest.raises(PointQueueError, match="no claim"):
        queue.release(item_id)
    assert queue.heartbeat("w0", item_id) is True
    assert queue.complete("w0", item_id, {"v": 1}) == "done"
    assert queue.items() == []
    assert len(journal_events(queue, "point_done")) == 1


@pytest.mark.parametrize("how", ("failure", "lapse"))
def test_unclaimed_requeue_is_cancelled(tmp_path, how):
    """Nobody waits for a LEASED item whose claims are gone, so a retry
    or a recovery cancels it instead of putting it back in line."""
    queue, clock = make_queue(tmp_path, retries=1)
    _, (item_id,) = queue.enqueue(points("a"))
    queue.lease("w0")
    queue.release(item_id)
    if how == "failure":
        assert queue.fail("w0", item_id, "boom") == ItemState.FAILED
    else:
        clock[0] = 50.0
        queue.requeue_expired()
    assert queue.items() == []
    assert journal_events(queue, "point_requeued") == []
    (failed,) = journal_events(queue, "point_failed")
    assert failed["error"].startswith("cancelled")


def test_lease_order_survives_dropped_items(tmp_path):
    """Enqueue positions come from a counter: once finished items have
    left, a new item still queues behind an older PENDING one."""
    queue, _ = make_queue(tmp_path)
    _, (a, b, c) = queue.enqueue(points("a", "b", "c"))
    for item_id in (a, b):
        queue.complete("w0", queue.lease("w0").id)
        queue.release(item_id)
    _, (d,) = queue.enqueue(points("d"))
    assert [queue.lease("w0").id for _ in range(2)] == [c, d]
