"""Journaled work queue of simulation points for the distributed fabric.

The coordinator-side state of one fabric session: batches of
:class:`~repro.runner.simpoint.SimPoint` become :class:`WorkItem`
entries that remote workers lease, heartbeat, and complete exactly
once, journaled with the fsynced-JSONL
:class:`~repro.runner.journal.RunJournal` discipline.  The queue is
the one owner of an item's life:

* **Leases.**  Every grant and heartbeat runs for the queue's
  ``lease_s``, and each item's deadline is the ``timeout_s`` its batch
  stamped on it; nothing a worker sends sets either.  A lease lapses
  when its holder stops heartbeating (:meth:`PointQueue.requeue_expired`)
  or at once when the runner reports the holder's process dead
  (:meth:`PointQueue.reclaim`).
* **Claims.**  Each id :meth:`PointQueue.enqueue` returns is one claim
  on that item, and :meth:`PointQueue.release` drops it, returning the
  value :meth:`PointQueue.complete` held for it.
* **Letting go.**  An item no batch claims is not kept: a PENDING one
  is cancelled, a finished one leaves the queue, and a LEASED one runs
  on and leaves when it finishes.  The shared result cache, when
  attached, keeps the value; the journal keeps the record.

Exactly-once contract
---------------------
A point's result is written into the shared content-addressed
:class:`~repro.runner.ResultCache` *before* ``point_done`` is journaled
(the coordinator does both; see :mod:`repro.fabric.runner`).  The first
completion wins: a late completion from a worker whose lease was
reclaimed is journaled as a no-op duplicate — harmless, because the
deterministic simulation wrote byte-identical bytes under the same
content key — and the item reaches DONE exactly once.  DONE and FAILED
are final: a completion arriving for a FAILED item (a point charged a
``timeout_s`` overrun that finished anyway) is a duplicate too.  A
report about an item that has left the queue is refused as an unknown
item, and nothing is journaled for it.

Item states::

    PENDING -> LEASED -> DONE
                      -> PENDING   (worker failed: retry; or vanished:
                                    recovery)
                      -> FAILED    (retries or recoveries exhausted:
                                    poison point; or cancelled: a
                                    requeue that no batch claims)
            -> FAILED              (cancelled: the last batch waiting
                                    on the point released it)

Two budgets, as on the local pool: a failure a worker *reports* (the
point raised, or overran its ``timeout_s``) charges ``retries``; a
lease that lapses because its worker died charges ``max_recoveries``
only.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.fabric.health import Health
from repro.obs import bind as obs_bind, current_context, emit as obs_emit
from repro.runner.journal import RunJournal
from repro.runner.simpoint import SimPoint

__all__ = ["ItemState", "PointQueue", "PointQueueError", "WorkItem"]

#: The error of an item that no batch waits for any more.
_CANCELLED = "cancelled: no batch waits for this point"


class PointQueueError(RuntimeError):
    """An illegal work-item transition (unknown item, bad worker...)."""


class ItemState:
    """String constants for the work-item lifecycle."""

    PENDING = "PENDING"
    LEASED = "LEASED"
    DONE = "DONE"
    FAILED = "FAILED"

    ALL = (PENDING, LEASED, DONE, FAILED)
    TERMINAL = (DONE, FAILED)


@dataclass
class WorkItem:
    """One leasable unit of work: a unique point within a batch.

    ``retries`` and ``timeout_s`` are stamped at enqueue time so a
    batch's ``run(..., retries=..., timeout_s=...)`` settings travel
    with its items instead of mutating shared state that concurrent
    batches would cross-wire.  ``retries`` overrides the queue's
    default; ``timeout_s`` is the point's one deadline (``None``: no
    deadline), which the leasing worker reads off the item.

    ``ctx`` is the correlation context bound when the item was
    enqueued (``job_id``/``request_id``); it travels to the leasing
    worker inside the lease response, so a worker's event log carries
    the same ``job_id`` as the coordinator's.

    ``claims`` counts the enqueued ids not yet released, and ``value``
    is the completed result, held for them.
    """

    id: str
    batch: int
    key: str
    describe: str
    state: str = ItemState.PENDING
    worker: str | None = None
    lease_until: float | None = None
    attempts: int = 0
    recoveries: int = 0
    error: str | None = None
    completed_by: str | None = None
    retries: int | None = None
    timeout_s: float | None = None
    ctx: dict | None = None
    claims: int = 0
    value: Any = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """JSON-able form for the lease response, without the value."""
        doc = dict(vars(self))
        del doc["value"]
        return doc


class PointQueue:
    """Lease-tracked point queue behind the fabric coordinator.

    Thread-safe: the HTTP server dispatches worker requests from many
    threads.  ``registry`` (optional) receives ``fabric_*`` counters.
    ``lease_s`` is the length of every lease and refresh;
    ``max_recoveries`` is how many lapsed leases an item survives
    before it is FAILED as poison; ``clock`` is the injectable wall
    clock of lease deadlines.

    Journal-failure policy: the fabric journal is an audit trail (this
    queue never replays it), so a failing disk must not corrupt live
    state — most events degrade :attr:`health` and proceed in memory.
    The exception is **granting new leases**: handing out work the
    journal cannot witness would silently widen the audit gap, so a
    lease whose ``point_leased`` record cannot be written is refused
    (the node answers "no work" until the disk recovers; the next
    successful journal write resolves the degradation).
    ``fs`` injects the filesystem seam for the chaos harness; ``health``
    shares a :class:`~repro.fabric.health.Health` (one is created,
    tagged ``fabric``, when not supplied).

    Hand-off: the queue's condition is notified when an item turns
    PENDING (enqueue, requeue) or terminal (done, failed), and on
    :meth:`drain`.  An idle :meth:`lease` with ``wait_s`` and a batch
    driver in :meth:`wait_finished` block on it instead of polling.

    Held state is bounded by the claims: :meth:`items` holds only
    unfinished items and finished ones a batch has yet to release.
    The hot path reads an index of PENDING items and of the one live
    (PENDING or LEASED) item per point key.
    """

    def __init__(self, state_dir: str | Path, registry=None,
                 lease_s: float = 30.0, retries: int = 1,
                 max_recoveries: int = 3, clock=time.time,
                 fs=None, health: Health | None = None) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        if max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        self.state_dir = Path(state_dir)
        self.journal = RunJournal(self.state_dir / "fabric.jsonl", fs=fs)
        self.health = (health if health is not None
                       else Health(registry=registry, component="fabric"))
        self.retries = int(retries)
        self.lease_s = float(lease_s)
        self.max_recoveries = int(max_recoveries)
        self.clock = clock
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        #: item id -> held item, in enqueue order.
        self._items: dict[str, WorkItem] = {}
        self._points: dict[str, SimPoint] = {}
        #: item id -> enqueue position: the lease order, which a
        #: requeued item keeps.
        self._seq: dict[str, int] = {}
        self._positions = itertools.count()
        #: Heap of ``(enqueue position, item id)`` covering every
        #: PENDING item; entries of items that have since left PENDING
        #: (or the queue) are dropped when they reach the top.
        self._ready: list[tuple[int, str]] = []
        #: Ids of the PENDING items (the depth gauge).
        self._pending: set[str] = set()
        #: point key -> its live (PENDING or LEASED) item; enqueue
        #: dedup keeps this to one item per key.
        self._live: dict[str, WorkItem] = {}
        self._next_batch = 0
        #: Set by :meth:`drain`: idle leases stop waiting for work.
        self.draining = False
        #: worker id -> last contact timestamp (lease/heartbeat/complete).
        self.workers_seen: dict[str, float] = {}
        #: worker id -> last *heartbeat* timestamp — tracked apart from
        #: general contact so operators can see a worker that still
        #: leases/polls but whose in-flight heartbeats stopped (it is
        #: about to lose its lease) before the sweep fires.
        self.heartbeats_seen: dict[str, float] = {}
        self._m_leases = self._m_heartbeats = self._m_completions = None
        self._m_requeues = self._m_failures = self._m_depth = None
        self._m_workers = self._m_journal_errors = None
        if registry is not None:
            self._m_journal_errors = registry.counter(
                "fabric_journal_errors_total",
                "journal appends lost to disk errors")
            self._m_leases = registry.counter(
                "fabric_leases_total", "point leases granted to workers")
            self._m_heartbeats = registry.counter(
                "fabric_heartbeats_total", "lease heartbeats accepted")
            self._m_completions = registry.counter(
                "fabric_completions_total", "point completions reported",
                labelnames=("status",))
            self._m_requeues = registry.counter(
                "fabric_requeues_total",
                "leases reclaimed from dead or silent workers")
            self._m_failures = registry.counter(
                "fabric_failures_total", "worker-reported point failures")
            self._m_depth = registry.gauge(
                "fabric_queue_depth", "PENDING points awaiting a worker")
            self._m_workers = registry.gauge(
                "fabric_workers", "distinct workers seen within one lease")

    # -- metric plumbing ---------------------------------------------------
    def _update_gauges(self) -> None:
        if self._m_depth is not None:
            self._m_depth.set(len(self._pending))
        if self._m_workers is not None:
            horizon = self.clock() - self.lease_s
            self._m_workers.set(sum(1 for t in self.workers_seen.values()
                                    if t >= horizon))

    def _saw(self, worker: str) -> None:
        self.workers_seen[str(worker)] = self.clock()

    # -- state index -------------------------------------------------------
    def _move(self, item: WorkItem, state: str) -> None:
        """Set ``item.state`` and keep the indexes in step.  Call with
        the lock held.

        Leaving LEASED clears the lease.  A finished item that no batch
        claims leaves the queue.  Waiters wake when the item turns
        PENDING or terminal.
        """
        item.state = state
        if state != ItemState.LEASED:
            item.worker = item.lease_until = None
            self._cond.notify_all()
        if state == ItemState.PENDING:
            self._pending.add(item.id)
            heapq.heappush(self._ready, (self._seq[item.id], item.id))
        else:
            self._pending.discard(item.id)
        if state in ItemState.TERMINAL:
            self._live.pop(item.key, None)
            if not item.claims:
                self._drop(item)

    def _drop(self, item: WorkItem) -> None:
        """Forget a finished item that no batch claims."""
        del self._items[item.id], self._points[item.id], self._seq[item.id]

    def _oldest_pending(self) -> WorkItem | None:
        """The PENDING item first in enqueue order, or ``None``."""
        while self._ready:
            item = self._items.get(self._ready[0][1])
            if item is not None and item.state == ItemState.PENDING:
                return item
            heapq.heappop(self._ready)
        return None

    # -- journal plumbing --------------------------------------------------
    def _journal(self, event: str, **fields) -> bool:
        """Append one audit record; ``False`` when the disk refused it.

        Success doubles as the recovery probe: the first append that
        lands after an outage resolves the ``journal`` degradation.
        """
        try:
            self.journal.append(event, **fields)
        except OSError as err:
            if self._m_journal_errors is not None:
                self._m_journal_errors.inc()
            self.health.degrade("journal",
                                f"{event} append failed: {err}")
            return False
        self.health.resolve("journal")
        return True

    # -- enqueue / release -------------------------------------------------
    def enqueue(self, points: Sequence[SimPoint],
                retries: int | None = None,
                timeout_s: float | None = None) -> tuple[int, list[str]]:
        """Add one batch; returns ``(batch id, item ids in order)``.

        Each returned id is one claim on its item, held until
        :meth:`release`.  Points whose key is already pending or leased
        (by an earlier, still-running batch) add a claim to the existing
        item instead of enqueuing a duplicate execution — the
        fabric-level analogue of the runner's batch dedup (an attached
        point keeps the existing item's overrides).  A finished key
        enqueues afresh.  ``retries`` / ``timeout_s`` are per-batch
        overrides stamped onto the new items.
        """
        with self._lock:
            batch = self._next_batch
            self._next_batch += 1
            ids = []
            for index, point in enumerate(points):
                key = point.key()
                item = self._live.get(key)
                if item is None:
                    item = WorkItem(
                        id=f"{batch}:{index}", batch=batch, key=key,
                        describe=point.describe(),
                        retries=int(retries) if retries is not None else None,
                        timeout_s=timeout_s, ctx=current_context() or None)
                    self._items[item.id] = item
                    self._points[item.id] = point
                    self._seq[item.id] = next(self._positions)
                    self._live[key] = item
                    self._move(item, ItemState.PENDING)
                    self._journal("point_enqueued", id=item.id, key=key,
                                  batch=batch, describe=item.describe)
                    obs_emit("point_enqueued", level="debug", item=item.id,
                             point_key=key, batch=batch)
                item.claims += 1
                ids.append(item.id)
            self._update_gauges()
            return batch, ids

    def release(self, item_id: str):
        """Drop one claim on an item; returns the value it holds
        (``None`` if it failed or has not finished).

        With the last claim gone nobody waits for the item: a PENDING
        one (its batch aborted) is cancelled — it ends FAILED,
        journaled like any failure, and no worker leases it — and a
        finished one leaves the queue.  A LEASED one runs on, still
        fills the cache, and leaves when it finishes.
        """
        with self._lock:
            item = self.get(item_id)
            if item.claims < 1:
                raise PointQueueError(f"item {item_id!r} has no claim")
            item.claims -= 1
            if not item.claims:
                if item.state == ItemState.PENDING:
                    self._end(item, None, _CANCELLED, cancelled=True)
                elif item.state in ItemState.TERMINAL:
                    self._drop(item)
                self._update_gauges()
            return item.value

    # -- worker protocol ---------------------------------------------------
    def lease(self, worker: str, wait_s: float = 0.0) -> WorkItem | None:
        """Oldest PENDING item, leased to ``worker`` for ``lease_s``
        (``None`` = none).

        With ``wait_s`` > 0 an idle call blocks up to that long for an
        item to turn PENDING; :meth:`drain` ends the wait at once.  A
        request whose worker :meth:`reclaim` has forgotten meanwhile
        gets nothing when it wakes: the worker is known dead and would
        never run the item.
        """
        deadline = time.monotonic() + wait_s
        with self._cond:
            self._saw(worker)
            while worker in self.workers_seen:
                item = self._oldest_pending()
                if item is not None and self._grant(item, worker):
                    return item
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.draining:
                    break
                self._cond.wait(remaining)
            self._update_gauges()
            return None

    def _grant(self, item: WorkItem, worker: str) -> bool:
        """Lease ``item`` to ``worker``; ``False`` if the journal refused.

        A lease the journal cannot witness must not stand: the item
        stays PENDING, uncharged and without waking anyone, and the
        caller waits out its ``wait_s`` before trying again — refusing
        work until the disk recovers, without spinning on it.
        """
        lease_until = self.clock() + self.lease_s
        if not self._journal("point_leased", id=item.id, worker=worker,
                             lease_until=lease_until,
                             attempts=item.attempts + 1):
            return False
        item.worker = str(worker)
        item.lease_until = lease_until
        item.attempts += 1
        self._move(item, ItemState.LEASED)
        if self._m_leases is not None:
            self._m_leases.inc()
        with obs_bind(**(item.ctx or {}), point_key=item.key,
                      worker_id=worker):
            obs_emit("point_leased", item=item.id,
                     attempts=item.attempts, lease_until=lease_until)
        self._update_gauges()
        return True

    def point(self, item_id: str) -> SimPoint:
        """The executable point behind one item."""
        with self._lock:
            if item_id not in self._points:
                raise PointQueueError(f"unknown item {item_id!r}")
            return self._points[item_id]

    def heartbeat(self, worker: str, item_id: str) -> bool:
        """Extend a live lease by ``lease_s`` (in-memory only).
        Returns ``False`` when the lease is no longer this worker's to
        refresh — a late heartbeat must not resurrect a reclaimed one."""
        with self._lock:
            self._saw(worker)
            item = self._items.get(item_id)
            if (item is None or item.state != ItemState.LEASED
                    or item.worker != worker):
                return False
            now = self.clock()
            item.lease_until = now + self.lease_s
            self.heartbeats_seen[str(worker)] = now
            if self._m_heartbeats is not None:
                self._m_heartbeats.inc()
            return True

    def complete(self, worker: str, item_id: str, value=None) -> str:
        """Record a completion; returns ``"done"``, ``"late"`` or
        ``"duplicate"``.

        Call only *after* the result bytes are durably in the shared
        cache (result-before-journal).  The first completion journals
        ``point_done`` and holds ``value`` for the item's claims; a
        second is a no-op duplicate, and so is one for a FAILED item,
        which stays FAILED.  A completion from a worker whose lease was
        reclaimed but whose item is still PENDING or LEASED is accepted
        (``"late"``) — the result is deterministic and already stored,
        so discarding it would only waste work.
        """
        with self._lock:
            self._saw(worker)
            item = self.get(item_id)
            if item.state in ItemState.TERMINAL:
                if self._m_completions is not None:
                    self._m_completions.labels(status="duplicate").inc()
                return "duplicate"
            status = "done" if item.worker == worker else "late"
            item.value = value
            item.completed_by = str(worker)
            item.error = None
            self._move(item, ItemState.DONE)
            self._journal("point_done", id=item.id, worker=worker,
                          status=status)
            if self._m_completions is not None:
                self._m_completions.labels(status=status).inc()
            with obs_bind(**(item.ctx or {}), point_key=item.key,
                          worker_id=worker):
                obs_emit("point_done", item=item.id, status=status)
            self._update_gauges()
            return status

    def fail(self, worker: str, item_id: str, error: str) -> str:
        """A worker reports a point failure; returns the new state
        (``PENDING`` for a retry, ``FAILED`` once the charged attempts
        — lease grants minus dead-worker recoveries — exceed the
        retry budget).

        Mirrors :meth:`complete`'s staleness classification: a report
        from a worker that no longer holds the lease (it lapsed and was
        reclaimed, possibly re-granted) is a no-op — transitioning the
        item on a stale report would requeue work another worker is
        live-leasing (double execution) or spuriously FAIL a point its
        new holder may yet complete.
        """
        with self._lock:
            self._saw(worker)
            item = self.get(item_id)
            if item.state == ItemState.DONE:
                return ItemState.DONE
            if item.worker != worker:
                return item.state
            if self._m_failures is not None:
                self._m_failures.inc()
            budget = item.retries if item.retries is not None else self.retries
            if item.attempts - item.recoveries > budget:
                self._end(item, worker, str(error))
            else:
                self._requeue(item, error=str(error))
            self._update_gauges()
            return item.state

    def _end(self, item: WorkItem, worker: str | None, error: str,
             **detail) -> None:
        """Move ``item`` to FAILED with ``error`` and journal it."""
        holder = item.worker
        item.error = error
        self._move(item, ItemState.FAILED)
        self._journal("point_failed", id=item.id, worker=worker,
                      error=error)
        with obs_bind(**(item.ctx or {}), point_key=item.key,
                      worker_id=holder):
            obs_emit("point_failed", level="error", item=item.id,
                     error=error, **detail)

    # -- crash recovery ----------------------------------------------------
    def _requeue(self, item: WorkItem, error: str | None = None,
                 recovered: bool = False) -> None:
        """Put a LEASED item back in line — or cancel it, when no batch
        claims it any more."""
        if not item.claims:
            self._end(item, None, _CANCELLED, cancelled=True)
            return
        holder = item.worker
        self._move(item, ItemState.PENDING)
        if error is not None:
            item.error = str(error)
        if recovered:
            item.recoveries += 1
        self._journal("point_requeued", id=item.id,
                      recoveries=item.recoveries,
                      **({"error": str(error)}
                         if error is not None else {}))
        with obs_bind(**(item.ctx or {}), point_key=item.key,
                      worker_id=holder):
            obs_emit("point_requeued", level="warn", item=item.id,
                     recovered=recovered, recoveries=item.recoveries,
                     **({"error": str(error)} if error is not None else {}))

    def _recover(self, item: WorkItem) -> None:
        """Take a lease back from a dead or silent holder: requeue the
        item, or FAIL it as poison once it has cycled through more than
        ``max_recoveries`` dead workers."""
        if item.recoveries + 1 > self.max_recoveries:
            self._end(item, None, f"failed after {item.recoveries + 1} "
                                  f"dead-worker recoveries", poison=True)
        else:
            self._requeue(item, recovered=True)
        if self._m_requeues is not None:
            self._m_requeues.inc()

    def requeue_expired(self) -> list:
        """Reclaim leases whose holder stopped heartbeating.

        Reclaiming journals (fsync), so a sweep over many items is
        slow.  It therefore snapshots the lapsed leases under the lock,
        *releases the lock between items*, and re-checks each item
        against a fresh clock just before reclaiming it: a heartbeat
        that lands mid-sweep rescues its item instead of losing the
        race to a stale snapshot.  Returns the items reclaimed.
        """
        def lapsed(item: WorkItem) -> bool:
            return (item.state == ItemState.LEASED
                    and item.lease_until < self.clock())

        with self._lock:
            candidates = [item for item in self._live.values()
                          if lapsed(item)]
        touched = []
        for item in candidates:
            with self._lock:
                if lapsed(item):
                    self._recover(item)
                    touched.append(item)
        with self._lock:
            self._update_gauges()
        return touched

    def reclaim(self, worker: str) -> list:
        """Reclaim every lease ``worker`` holds, now: its process is
        known dead, so there is no lapse to wait for.  The worker is
        forgotten too, so a lease request it left waiting gets nothing.
        Returns the items reclaimed."""
        with self._lock:
            touched = [item for item in self._live.values()
                       if item.state == ItemState.LEASED
                       and item.worker == worker]
            for item in touched:
                self._recover(item)
            self.workers_seen.pop(worker, None)
            self.heartbeats_seen.pop(worker, None)
            self._update_gauges()
            return touched

    # -- inspection --------------------------------------------------------
    @property
    def lock(self) -> threading.RLock:
        """The queue's re-entrant lock, for callers composing larger
        atomic steps around it (e.g. the coordinator's
        check-state-then-cache-then-journal completion)."""
        return self._lock

    def get(self, item_id: str) -> WorkItem:
        """The held item, or :class:`PointQueueError` when unknown."""
        with self._lock:
            item = self._items.get(item_id)
            if item is None:
                raise PointQueueError(f"unknown item {item_id!r}")
            return item

    def items(self, batch: int | None = None,
              state: str | None = None) -> list[WorkItem]:
        """Held items in enqueue order, optionally filtered."""
        with self._lock:
            return [item for item in self._items.values()
                    if (batch is None or item.batch == batch)
                    and (state is None or item.state == state)]

    def wait_finished(self, ids: Sequence[str],
                      timeout_s: float) -> list[str]:
        """The named items that are terminal (DONE or FAILED), in the
        given order, blocking up to ``timeout_s`` until one is.  The
        caller holds a claim on each, so none has left."""
        with self._cond:
            return self._cond.wait_for(
                lambda: [i for i in ids
                         if self._items[i].state in ItemState.TERMINAL],
                timeout_s)

    def drain(self) -> None:
        """Start draining: waiting and later idle leases return at once
        (the coordinator then answers them with its shutdown hint)."""
        with self._cond:
            self.draining = True
            self._cond.notify_all()

    def snapshot(self) -> dict:
        """Counts of the held items + per-worker ages, for ``/status``.

        ``workers`` keeps its original shape (worker -> last-contact
        age); ``worker_detail`` adds the last-*heartbeat* age and a
        ``stale`` flag (no heartbeat within one lease window while
        holding a lease) so operators see a worker going silent
        *before* the expiry sweep reclaims its item.
        """
        with self._lock:
            now = self.clock()
            counts = {state: 0 for state in ItemState.ALL}
            holding = set()
            for item in self._items.values():
                counts[item.state] += 1
                if item.state == ItemState.LEASED:
                    holding.add(item.worker)
            detail = {}
            for worker, seen in sorted(self.workers_seen.items()):
                beat = self.heartbeats_seen.get(worker)
                beat_age = round(now - beat, 3) if beat is not None else None
                stale = (worker in holding
                         and (beat is None or now - beat > self.lease_s))
                detail[worker] = {
                    "last_contact_s": round(now - seen, 3),
                    "last_heartbeat_s": beat_age,
                    "leased": worker in holding,
                    "stale": stale,
                }
            return {
                "items": len(self._items),
                "states": counts,
                "lease_s": self.lease_s,
                "health": self.health.as_dict(),
                "workers": {w: round(now - t, 3)
                            for w, t in sorted(self.workers_seen.items())},
                "worker_detail": detail,
            }
