"""Lease/heartbeat/expiry engine of the fabric's point queue.

:class:`~repro.fabric.queue.PointQueue` leases points to remote
workers, which can die without a word, so its leases carry a deadline.
The coordinator that grants a lease owns its length (``lease_s``) and
deadline (``lease_until``); nothing a worker sends can change either.
This module holds those mechanics:

* **Lease bookkeeping** — granting a lease stamps the holder and an
  expiry (``lease_until``) onto the entry and charges an attempt;
  releasing clears both.
* **Heartbeats** — a live holder refreshes ``lease_until`` by the same
  ``lease_s``, *in memory only*.  Heartbeats are liveness, not durable
  state.
* **Expiry sweeps with the TOCTOU window closed** — reclaiming an
  expired lease involves a durable journal write (fsync), so a sweep
  over many entries is slow.  :meth:`LeaseManager.sweep_expired`
  snapshots candidates under the caller's lock, then *releases the lock
  between entries* and re-checks each entry's expiry against a fresh
  clock immediately before reclaiming it — a heartbeat that arrives
  after the snapshot (even mid-sweep) rescues its entry instead of
  queueing behind the whole sweep and losing the race.
* **Recovery counting** — an entry whose lease lapsed more than
  ``max_recoveries`` times is poison (it keeps taking its executor
  down) and should be quarantined rather than requeued.

The service's job queue needs none of this: a job lease is a journaled
claim by a thread of the same process, reclaimed only by crash
recovery at start.  The result-before-journal half of the exactly-once
contract is :func:`repro.runner.fsio.atomic_write`.

Entries are duck-typed: anything with ``state``, ``worker``,
``lease_until``, ``attempts`` and ``recoveries`` attributes (the fabric
``WorkItem``) plugs in directly.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Protocol, runtime_checkable

__all__ = ["LeaseManager", "Leasable"]

#: The one entry state that holds a lease.
LEASED = "LEASED"


@runtime_checkable
class Leasable(Protocol):
    """What :class:`LeaseManager` needs from an entry."""

    state: str
    worker: str | None
    lease_until: float | None
    attempts: int
    recoveries: int


class LeaseManager:
    """Lease-state engine of the point queue.

    Parameters
    ----------
    lease_s:
        The length of every lease, at grant and at each refresh.
    max_recoveries:
        How many lapsed leases an entry survives before
        :meth:`should_quarantine` says it is poison.
    clock:
        Injectable time source (tests freeze it).
    """

    def __init__(self, lease_s: float = 60.0, max_recoveries: int = 3,
                 clock: Callable[[], float] = time.time) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        if max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        self.lease_s = float(lease_s)
        self.max_recoveries = int(max_recoveries)
        self.clock = clock

    # -- grant / refresh / release -----------------------------------------
    def grant(self, entry: Leasable, worker: str) -> float:
        """Stamp ``worker`` and an expiry onto ``entry``; charge an
        attempt.  Returns the new ``lease_until``."""
        entry.worker = str(worker)
        entry.attempts += 1
        entry.lease_until = self.clock() + self.lease_s
        return entry.lease_until

    def refresh(self, entry: Leasable) -> bool:
        """Heartbeat: extend a *live* holder's lease, in memory only.

        Returns ``False`` (and touches nothing) when the entry is not
        currently leased — a late heartbeat from a holder whose lease
        was already reclaimed must not resurrect it.
        """
        if entry.state != LEASED or entry.worker is None:
            return False
        entry.lease_until = self.clock() + self.lease_s
        return True

    def release(self, entry: Leasable) -> None:
        """Clear the lease fields (completion, failure, requeue)."""
        entry.worker = None
        entry.lease_until = None

    # -- expiry ------------------------------------------------------------
    def expired(self, entry: Leasable, now: float | None = None) -> bool:
        """Whether ``entry`` holds a lease that has lapsed."""
        if (entry.state != LEASED or entry.worker is None
                or entry.lease_until is None):
            return False
        return entry.lease_until < (now if now is not None else self.clock())

    def sweep_expired(self, entries: Callable[[], Iterable[Leasable]],
                      lock, reclaim: Callable[[Leasable], None]) -> list:
        """Reclaim every lapsed lease, with the TOCTOU window closed.

        ``entries`` is called under ``lock`` to snapshot candidates;
        ``reclaim`` is then invoked per entry, also under ``lock`` but
        with the lock *released between entries* so heartbeats blocked
        behind the sweep get processed mid-sweep.  Immediately before
        each reclaim the expiry is re-checked against a **fresh** clock
        reading: a heartbeat that arrived between the snapshot and this
        entry's turn (the journal fsyncs of earlier reclaims make that
        window real) has refreshed ``lease_until`` and rescues it.

        Returns the entries actually reclaimed.
        """
        with lock:
            now = self.clock()
            candidates = [e for e in entries() if self.expired(e, now)]
        touched = []
        for entry in candidates:
            with lock:
                if not self.expired(entry, self.clock()):
                    continue  # heartbeat won the race; lease is live again
                reclaim(entry)
                touched.append(entry)
        return touched

    # -- recovery ----------------------------------------------------------
    def should_quarantine(self, entry: Leasable) -> bool:
        """Whether one more recovery would exceed ``max_recoveries``."""
        return entry.recoveries + 1 > self.max_recoveries
