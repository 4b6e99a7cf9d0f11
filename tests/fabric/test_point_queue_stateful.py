"""Property-based interleaving test: the PointQueue under clock skew.

A Hypothesis state machine drives a :class:`PointQueue` through random
interleavings of lease / heartbeat / complete / fail / expiry sweeps
while the (injected) clock jumps forward and *backward*.  Whatever the
order, the safety invariants must hold:

* no point is ever lost — the item-id set never changes, and every
  item is always in a legal lifecycle state;
* no point is doubly completed — the journal records at most one
  ``point_done`` per item, and DONE is sticky (a later failure report
  or expiry sweep never resurrects a completed item);
* FAILED is sticky too — a late completion of a failed item is a
  duplicate, not a second outcome;
* a lease is held by at most the worker the queue says holds it;
* a lease goes to the oldest PENDING item in enqueue order.
"""

import json

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.fabric.queue import ItemState, PointQueue

from tests.fabric._points import OkPoint

N_POINTS = 5
WORKERS = ("w0", "w1", "w2")


class PointQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 1_000.0
        self.tmp = None
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
        self.done_seen: set[str] = set()
        self.failed_seen: set[str] = set()

    def teardown(self):
        self.tmp.cleanup()

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
        ok = self.queue.heartbeat(worker, self.ids[index])
        item = self.queue.get(self.ids[index])
        if ok:
            # Only the recorded holder may refresh.
            assert item.worker == worker and item.state == ItemState.LEASED

    @rule(worker=st.sampled_from(WORKERS),
          index=st.integers(min_value=0, max_value=N_POINTS - 1))
    def complete(self, worker, index):
        item_id = self.ids[index]
        before = self.queue.get(item_id).state
        status = self.queue.complete(worker, item_id)
        assert status in ("done", "late", "duplicate")
        if before == ItemState.FAILED:
            assert status == "duplicate"
            assert self.queue.get(item_id).state == ItemState.FAILED
            return
        if status == "duplicate":
            assert item_id in self.done_seen
        self.done_seen.add(item_id)
        assert self.queue.get(item_id).state == ItemState.DONE

    @rule(worker=st.sampled_from(WORKERS),
          index=st.integers(min_value=0, max_value=N_POINTS - 1))
    def fail(self, worker, index):
        before = self.queue.get(self.ids[index]).state
        state = self.queue.fail(worker, self.ids[index], "chaos says no")
        if before in (ItemState.DONE, ItemState.FAILED):
            assert state == before  # stale report: no-op
        else:
            assert state in (ItemState.PENDING, ItemState.FAILED,
                             ItemState.LEASED)

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
        assert set(items) == set(self.ids)
        for item in items.values():
            assert item.state in ItemState.ALL
            if item.state == ItemState.LEASED:
                assert item.worker in WORKERS
            if item.state == ItemState.PENDING:
                assert item.worker is None

    @invariant()
    def done_is_sticky(self):
        for item_id in self.done_seen:
            assert self.queue.get(item_id).state == ItemState.DONE

    @invariant()
    def failed_is_sticky(self):
        for item_id in self.failed_seen:
            assert self.queue.get(item_id).state == ItemState.FAILED
        self.failed_seen |= {item.id for item in self.queue.items()
                             if item.state == ItemState.FAILED}

    @invariant()
    def journal_never_doubles_a_completion(self):
        journal = self.queue.journal
        done = [record for record in journal.events()
                if record.get("event") == "point_done"]
        ids = [record["id"] for record in done]
        assert len(ids) == len(set(ids)), "double point_done journaled"
        # Journal and live state agree on what completed.
        assert set(ids) == {item.id for item in self.queue.items()
                            if item.state == ItemState.DONE}


TestPointQueueInterleavings = PointQueueMachine.TestCase
TestPointQueueInterleavings.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
