"""Property-based interleaving test: the PointQueue under clock skew.

A Hypothesis state machine drives a :class:`PointQueue` through random
interleavings of lease / heartbeat / complete / fail / release / expiry
sweeps while the (injected) clock jumps forward and *backward*.
Whatever the order, the safety invariants must hold:

* no point is ever lost — an id leaves the queue only once it is
  terminal and no batch claims it (a PENDING one is first journaled as
  cancelled), never comes back, and every held item is in a legal
  lifecycle state;
* a report about an id that has left changes nothing — ``complete``
  and ``fail`` raise, ``heartbeat`` answers ``False``, and nothing is
  journaled;
* no point is doubly completed — the journal records at most one
  ``point_done`` per item, and DONE is sticky (a later failure report
  or expiry sweep never resurrects a completed item);
* FAILED is sticky too — a late completion of a failed item is a
  duplicate, not a second outcome;
* ``release`` hands over the first completion's value;
* a lease is held by at most the worker the queue says holds it;
* a lease goes to the oldest PENDING item in enqueue order.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.fabric.queue import ItemState, PointQueue, PointQueueError

from tests.fabric._points import OkPoint

N_POINTS = 5
WORKERS = ("w0", "w1", "w2")
TERMINAL_EVENTS = ("point_done", "point_failed")


class PointQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 1_000.0
        import tempfile
        self.tmp = tempfile.TemporaryDirectory()
        self.queue = PointQueue(self.tmp.name, lease_s=10.0,
                                retries=1, max_recoveries=3,
                                clock=lambda: self.now)
        points = [OkPoint(token=f"sp{i}") for i in range(N_POINTS)]
        # The first two points (leased first) fail on their first
        # reported failure, so short interleavings reach FAILED as well
        # as the retry path.
        _batch, self.ids = self.queue.enqueue(points[:2], retries=0)
        _batch, more = self.queue.enqueue(points[2:])
        self.ids += more
        #: Model of the claims: one per returned id; the last point is
        #: enqueued twice, so its item starts with two.
        self.claims = {item_id: 1 for item_id in self.ids}
        _batch, (again,) = self.queue.enqueue(points[-1:])
        self.claims[again] += 1
        self.values: dict[str, tuple] = {}
        self.left: set[str] = set()
        self.done_seen: set[str] = set()
        self.failed_seen: set[str] = set()

    def teardown(self):
        self.tmp.cleanup()

    def gone(self) -> set[str]:
        """The ids that have left the queue."""
        return set(self.ids) - {item.id for item in self.queue.items()}

    def records(self, item_id=None) -> list[dict]:
        return [record for record in self.queue.journal.events()
                if item_id is None or record.get("id") == item_id]

    def refused(self, report) -> None:
        """A report about an id that has left raises and journals
        nothing."""
        before = self.records()
        with pytest.raises(PointQueueError, match="unknown item"):
            report()
        assert self.records() == before

    # -- actions -----------------------------------------------------------
    @rule(worker=st.sampled_from(WORKERS))
    def lease(self, worker):
        # Lease order: the oldest PENDING item in enqueue order, requeued
        # items at their original place.
        oldest = next((i.id for i in self.queue.items()
                       if i.state == ItemState.PENDING), None)
        item = self.queue.lease(worker)
        assert (item.id if item is not None else None) == oldest
        if item is not None:
            assert item.state == ItemState.LEASED
            assert item.worker == worker

    @rule(worker=st.sampled_from(WORKERS),
          index=st.integers(min_value=0, max_value=N_POINTS - 1))
    def heartbeat(self, worker, index):
        item_id = self.ids[index]
        ok = self.queue.heartbeat(worker, item_id)
        if item_id in self.gone():
            assert ok is False
        elif ok:
            # Only the recorded holder may refresh.
            item = self.queue.get(item_id)
            assert item.worker == worker and item.state == ItemState.LEASED

    @rule(worker=st.sampled_from(WORKERS),
          index=st.integers(min_value=0, max_value=N_POINTS - 1))
    def complete(self, worker, index):
        item_id = self.ids[index]
        value = ("value", item_id, worker, self.now)
        if item_id in self.gone():
            self.refused(lambda: self.queue.complete(worker, item_id, value))
            return
        before = self.queue.get(item_id).state
        status = self.queue.complete(worker, item_id, value)
        assert status in ("done", "late", "duplicate")
        if before == ItemState.FAILED:
            assert status == "duplicate"
            assert self.queue.get(item_id).state == ItemState.FAILED
            return
        if status == "duplicate":
            assert item_id in self.done_seen
        else:
            self.values[item_id] = value
        self.done_seen.add(item_id)
        if self.claims[item_id]:
            assert self.queue.get(item_id).state == ItemState.DONE

    @rule(worker=st.sampled_from(WORKERS),
          index=st.integers(min_value=0, max_value=N_POINTS - 1))
    def fail(self, worker, index):
        item_id = self.ids[index]
        if item_id in self.gone():
            self.refused(
                lambda: self.queue.fail(worker, item_id, "chaos says no"))
            return
        before = self.queue.get(item_id).state
        state = self.queue.fail(worker, item_id, "chaos says no")
        if before in (ItemState.DONE, ItemState.FAILED):
            assert state == before  # stale report: no-op
        else:
            assert state in (ItemState.PENDING, ItemState.FAILED,
                             ItemState.LEASED)

    @precondition(lambda self: any(self.claims.values()))
    @rule(data=st.data())
    def release(self, data):
        item_id = data.draw(st.sampled_from(
            [i for i in self.ids if self.claims[i]]))
        before = self.queue.get(item_id).state
        value = self.queue.release(item_id)
        self.claims[item_id] -= 1
        assert value == (self.values[item_id]
                         if before == ItemState.DONE else None)
        if self.claims[item_id] or before == ItemState.LEASED:
            # Still claimed, or still running: it stays.
            assert self.queue.get(item_id).state == before
            return
        assert item_id in self.gone()
        if before == ItemState.PENDING:
            last = self.records(item_id)[-1]
            assert last["event"] == "point_failed"
            assert last["error"].startswith("cancelled")

    @rule()
    def requeue_expired(self):
        self.queue.requeue_expired()

    @rule(dt=st.floats(min_value=-1.0, max_value=20.0,
                       allow_nan=False, allow_infinity=False))
    def advance_clock(self, dt):
        self.now += dt

    # -- safety invariants --------------------------------------------------
    @invariant()
    def no_point_lost(self):
        items = {item.id: item for item in self.queue.items()}
        assert set(items) <= set(self.ids)
        left = set(self.ids) - set(items)
        assert self.left <= left, "an id came back"
        for item_id in left - self.left:
            # An id leaves only when it is terminal with no claims.
            assert self.claims[item_id] == 0
            assert self.records(item_id)[-1]["event"] in TERMINAL_EVENTS
        self.left = left
        for item in items.values():
            assert item.state in ItemState.ALL
            assert item.claims == self.claims[item.id]
            # Only a running item outlives its claims.
            assert item.claims or item.state == ItemState.LEASED
            if item.state == ItemState.LEASED:
                assert item.worker in WORKERS
            if item.state == ItemState.PENDING:
                assert item.worker is None

    @invariant()
    def done_is_sticky(self):
        for item_id in self.done_seen - self.gone():
            assert self.queue.get(item_id).state == ItemState.DONE

    @invariant()
    def failed_is_sticky(self):
        for item_id in self.failed_seen - self.gone():
            assert self.queue.get(item_id).state == ItemState.FAILED
        self.failed_seen |= {item.id for item in self.queue.items()
                             if item.state == ItemState.FAILED}

    @invariant()
    def journal_never_doubles_a_completion(self):
        ids = [record["id"] for record in self.records()
               if record.get("event") == "point_done"]
        assert len(ids) == len(set(ids)), "double point_done journaled"
        # Journal and the machine agree on what completed.
        assert set(ids) == self.done_seen


TestPointQueueInterleavings = PointQueueMachine.TestCase
TestPointQueueInterleavings.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
