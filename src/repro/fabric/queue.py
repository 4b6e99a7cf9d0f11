"""Journaled work queue of simulation points for the distributed fabric.

The coordinator-side state of one fabric session: batches of
:class:`~repro.runner.simpoint.SimPoint` become :class:`WorkItem`
entries that remote workers lease, heartbeat, and complete exactly
once, journaled with the fsynced-JSONL
:class:`~repro.runner.journal.RunJournal` discipline.  The queue's
:class:`~repro.fabric.lease.LeaseManager` is the one owner of lease
length and deadline: every grant and heartbeat runs for the queue's
``lease_s``, and each item's deadline is the ``timeout_s`` its batch
stamped on it.  Nothing a worker sends sets either.

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
``timeout_s`` overrun that finished anyway) is a duplicate too.

Item states::

    PENDING -> LEASED -> DONE
                      -> PENDING   (worker failed: retry; or vanished:
                                    recovery)
                      -> FAILED    (retries or recoveries exhausted:
                                    poison point)
            -> FAILED              (cancelled: the last batch waiting
                                    on the point released it)

Two budgets, as on the local pool: a failure a worker *reports* (the
point raised, or overran its ``timeout_s``) charges ``retries``; a
lease that lapses because its worker died charges ``max_recoveries``
only.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from repro.fabric.health import Health
from repro.fabric.lease import LeaseManager
from repro.obs import bind as obs_bind, current_context, emit as obs_emit
from repro.runner.journal import RunJournal
from repro.runner.simpoint import SimPoint

__all__ = ["ItemState", "PointQueue", "PointQueueError", "WorkItem"]


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

    def to_dict(self) -> dict:
        """JSON-able form for journal records and status payloads."""
        return asdict(self)


class PointQueue:
    """Lease-tracked point queue behind the fabric coordinator.

    Thread-safe: the HTTP server dispatches worker requests from many
    threads.  ``registry`` (optional) receives ``fabric_*`` counters.

    Journal-failure policy: the fabric journal is an audit trail (this
    queue never replays it), so a failing disk must not corrupt live
    state — most events degrade :attr:`health` and proceed in memory.
    The exception is **granting new leases**: handing out work the
    journal cannot witness would silently widen the audit gap, so a
    lease whose ``point_leased`` record cannot be written is reverted
    and refused (the node answers "no work" until the disk recovers;
    the next successful journal write resolves the degradation).
    ``fs`` injects the filesystem seam for the chaos harness; ``health``
    shares a :class:`~repro.fabric.health.Health` (one is created,
    tagged ``fabric``, when not supplied).

    Hand-off: the queue's condition is notified when an item turns
    PENDING (enqueue, requeue) or terminal (done, failed), and on
    :meth:`drain`.  An idle :meth:`lease` with ``wait_s`` and a batch
    driver in :meth:`wait_finished` block on it instead of polling.

    Finished items stay in :meth:`items` (a late completion must still
    read as a duplicate), but the hot path does not touch them:
    leases, enqueue dedup, cancellation, gauges and expiry sweeps read
    an index of PENDING items and of the one live (PENDING or LEASED)
    item per point key.
    """

    def __init__(self, state_dir: str | Path, registry=None,
                 lease_s: float = 30.0, retries: int = 1,
                 max_recoveries: int = 3, clock=time.time,
                 fs=None, health: Health | None = None) -> None:
        self.state_dir = Path(state_dir)
        self.journal = RunJournal(self.state_dir / "fabric.jsonl", fs=fs)
        self.health = (health if health is not None
                       else Health(registry=registry, component="fabric"))
        self.retries = int(retries)
        self.leases = LeaseManager(lease_s=lease_s,
                                   max_recoveries=max_recoveries,
                                   clock=clock)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        #: item id -> item, in enqueue order.
        self._items: dict[str, WorkItem] = {}
        self._points: dict[str, SimPoint] = {}
        #: item id -> enqueue position: the lease order, which a
        #: requeued item keeps.
        self._seq: dict[str, int] = {}
        #: Heap of ``(enqueue position, item id)`` covering every
        #: PENDING item; entries of items that have since left PENDING
        #: are dropped when they reach the top.
        self._ready: list[tuple[int, str]] = []
        #: Ids of the PENDING items (the depth gauge).
        self._pending: set[str] = set()
        #: point key -> its live (PENDING or LEASED) item; enqueue
        #: dedup keeps this to one item per key.
        self._live: dict[str, WorkItem] = {}
        self._next_batch = 0
        #: Set by :meth:`drain`: idle leases stop waiting for work.
        self.draining = False
        #: point key -> enqueued references whose batch has not yet
        #: :meth:`release`-d them (how long a result is worth holding).
        self._waiting: dict[str, int] = {}
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
            horizon = self.leases.clock() - self.leases.lease_s
            self._m_workers.set(sum(1 for t in self.workers_seen.values()
                                    if t >= horizon))

    def _saw(self, worker: str) -> None:
        self.workers_seen[str(worker)] = self.leases.clock()

    # -- state index -------------------------------------------------------
    def _move(self, item: WorkItem, state: str) -> None:
        """Set ``item.state`` and keep the indexes in step; waiters wake
        when the item turns PENDING or terminal.  Call with the lock
        held."""
        item.state = state
        if state == ItemState.PENDING:
            self._pending.add(item.id)
            heapq.heappush(self._ready, (self._seq[item.id], item.id))
        else:
            self._pending.discard(item.id)
        if state in ItemState.TERMINAL:
            self._live.pop(item.key, None)
        if state != ItemState.LEASED:
            self._cond.notify_all()

    def _oldest_pending(self) -> WorkItem | None:
        """The PENDING item first in enqueue order, or ``None``."""
        while self._ready:
            item = self._items[self._ready[0][1]]
            if item.state == ItemState.PENDING:
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

    # -- enqueue -----------------------------------------------------------
    def enqueue(self, points: Sequence[SimPoint],
                retries: int | None = None,
                timeout_s: float | None = None) -> tuple[int, list[str]]:
        """Add one batch; returns ``(batch id, item ids in order)``.

        Points whose key is already pending or leased (by an earlier,
        still-running batch) attach to the existing item instead of
        enqueuing a duplicate execution — the fabric-level analogue of
        the runner's batch dedup (an attached point keeps the existing
        item's overrides).  A finished key enqueues afresh: its value is
        held only for the batches that were waiting on it.  Every point
        counts as one claim on its key until :meth:`release`.
        ``retries`` / ``timeout_s`` are per-batch overrides stamped onto
        the new items.
        """
        with self._lock:
            batch = self._next_batch
            self._next_batch += 1
            ids = []
            for index, point in enumerate(points):
                key = point.key()
                self._waiting[key] = self._waiting.get(key, 0) + 1
                existing = self._live.get(key)
                if existing is not None:
                    ids.append(existing.id)
                    continue
                item = WorkItem(id=f"{batch}:{index}", batch=batch, key=key,
                                describe=point.describe(),
                                retries=(int(retries) if retries is not None
                                         else None),
                                timeout_s=timeout_s)
                item.ctx = current_context() or None
                self._items[item.id] = item
                self._points[item.id] = point
                self._seq[item.id] = len(self._seq)
                self._live[key] = item
                self._move(item, ItemState.PENDING)
                self._journal("point_enqueued", id=item.id, key=key,
                              batch=batch, describe=item.describe)
                obs_emit("point_enqueued", level="debug", item=item.id,
                         point_key=key, batch=batch)
                ids.append(item.id)
            self._update_gauges()
            return batch, ids

    def waiting(self, key: str) -> int:
        """Unreleased enqueued claims on ``key``."""
        with self._lock:
            return self._waiting.get(key, 0)

    def release(self, key: str) -> bool:
        """Drop one claim on ``key``; ``True`` when it was the last.

        With the last claim gone nobody waits for the point, so a
        PENDING item of ``key`` (its batch aborted) is cancelled: it
        ends FAILED, journaled like any failure, and no worker leases
        it.  A LEASED one runs on and still fills the cache.
        """
        with self._lock:
            left = self._waiting.get(key, 0) - 1
            if left > 0:
                self._waiting[key] = left
                return False
            self._waiting.pop(key, None)
            item = self._live.get(key)
            if item is not None and item.state == ItemState.PENDING:
                self._end(item, None, "cancelled: no batch waits for "
                                      "this point", cancelled=True)
                self._update_gauges()
            return True

    # -- worker protocol ---------------------------------------------------
    def lease(self, worker: str, wait_s: float = 0.0) -> WorkItem | None:
        """Oldest PENDING item, leased to ``worker`` for ``lease_s``
        (``None`` = none).

        With ``wait_s`` > 0 an idle call blocks up to that long for an
        item to turn PENDING; :meth:`drain` ends the wait at once.
        """
        deadline = time.monotonic() + wait_s
        with self._cond:
            self._saw(worker)
            while True:
                item = self._oldest_pending()
                if item is not None and self._grant(item, worker):
                    return item
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.draining:
                    self._update_gauges()
                    return None
                self._cond.wait(remaining)

    def _grant(self, item: WorkItem, worker: str) -> bool:
        """Lease ``item`` to ``worker``; ``False`` if the journal refused.

        A lease the journal cannot witness must not stand: the grant
        (including its attempt charge) is reverted, the item stays
        PENDING without waking anyone, and the caller waits out its
        ``wait_s`` before trying again — refusing work until the disk
        recovers, without spinning on it.
        """
        lease_until = self.leases.grant(item, worker)
        if not self._journal("point_leased", id=item.id, worker=worker,
                             lease_until=lease_until,
                             attempts=item.attempts):
            self.leases.release(item)
            item.attempts -= 1
            return False
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
        refresh."""
        with self._lock:
            self._saw(worker)
            item = self._items.get(item_id)
            if item is None or item.worker != worker:
                return False
            ok = self.leases.refresh(item)
            if ok:
                self.heartbeats_seen[str(worker)] = self.leases.clock()
                if self._m_heartbeats is not None:
                    self._m_heartbeats.inc()
            return ok

    def complete(self, worker: str, item_id: str) -> str:
        """Record a completion; returns ``"done"``, ``"late"`` or
        ``"duplicate"``.

        Call only *after* the result bytes are durably in the shared
        cache (result-before-journal).  The first completion journals
        ``point_done``; a second is a no-op duplicate, and so is one for
        a FAILED item, which stays FAILED.  A completion from a worker
        whose lease was reclaimed but whose item is still PENDING or
        LEASED is accepted (``"late"``) — the result is deterministic
        and already stored, so discarding it would only waste work.
        """
        with self._lock:
            self._saw(worker)
            item = self.get(item_id)
            if item.state in ItemState.TERMINAL:
                if self._m_completions is not None:
                    self._m_completions.labels(status="duplicate").inc()
                return "duplicate"
            status = "done" if item.worker == worker else "late"
            self._move(item, ItemState.DONE)
            item.completed_by = str(worker)
            item.error = None
            self.leases.release(item)
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
        self._move(item, ItemState.FAILED)
        item.error = error
        self.leases.release(item)
        self._journal("point_failed", id=item.id, worker=worker,
                      error=error)
        with obs_bind(**(item.ctx or {}), point_key=item.key,
                      worker_id=holder):
            obs_emit("point_failed", level="error", item=item.id,
                     error=error, **detail)

    # -- crash recovery ----------------------------------------------------
    def _requeue(self, item: WorkItem, error: str | None = None,
                 recovered: bool = False) -> None:
        holder = item.worker
        self._move(item, ItemState.PENDING)
        self.leases.release(item)
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

    def requeue_expired(self) -> list:
        """Reclaim leases whose holder stopped heartbeating.

        Uses the TOCTOU-closed sweep: a heartbeat arriving mid-sweep
        rescues its item.  An item that has cycled through
        too many dead workers is FAILED as poison instead of requeued
        forever.
        """
        def reclaim(item: WorkItem) -> None:
            if self.leases.should_quarantine(item):
                self._end(item, None, f"failed after {item.recoveries + 1} "
                                      f"dead-worker recoveries", poison=True)
            else:
                self._requeue(item, recovered=True)
            if self._m_requeues is not None:
                self._m_requeues.inc()

        touched = self.leases.sweep_expired(
            lambda: list(self._live.values()), lock=self._lock,
            reclaim=reclaim)
        with self._lock:
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
        """The item, or :class:`PointQueueError` when unknown."""
        with self._lock:
            item = self._items.get(item_id)
            if item is None:
                raise PointQueueError(f"unknown item {item_id!r}")
            return item

    def items(self, batch: int | None = None,
              state: str | None = None) -> list[WorkItem]:
        """Items in enqueue order, optionally filtered."""
        with self._lock:
            return [item for item in self._items.values()
                    if (batch is None or item.batch == batch)
                    and (state is None or item.state == state)]

    def wait_finished(self, ids: Sequence[str],
                      timeout_s: float) -> list[str]:
        """The named items that are terminal (DONE or FAILED), in the
        given order, blocking up to ``timeout_s`` until one is."""
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
        """Counts + per-worker ages, for ``/status``.

        ``workers`` keeps its original shape (worker -> last-contact
        age); ``worker_detail`` adds the last-*heartbeat* age and a
        ``stale`` flag (no heartbeat within one lease window while
        holding a lease) so operators see a worker going silent
        *before* the expiry sweep reclaims its item.
        """
        with self._lock:
            now = self.leases.clock()
            counts = {state: 0 for state in ItemState.ALL}
            holding = set()
            for item in self._items.values():
                counts[item.state] += 1
                if item.state == ItemState.LEASED and item.worker:
                    holding.add(item.worker)
            detail = {}
            for worker, seen in sorted(self.workers_seen.items()):
                beat = self.heartbeats_seen.get(worker)
                beat_age = round(now - beat, 3) if beat is not None else None
                stale = (worker in holding
                         and (beat is None
                              or now - beat > self.leases.lease_s))
                detail[worker] = {
                    "last_contact_s": round(now - seen, 3),
                    "last_heartbeat_s": beat_age,
                    "leased": worker in holding,
                    "stale": stale,
                }
            return {
                "items": len(self._items),
                "states": counts,
                "lease_s": self.leases.lease_s,
                "health": self.health.as_dict(),
                "workers": {w: round(now - t, 3)
                            for w, t in sorted(self.workers_seen.items())},
                "worker_detail": detail,
            }
