"""Shared lease/heartbeat/exactly-once primitives.

The lease idiom grew twice — once in the service job queue
(:mod:`repro.service.queue`) and once, implicitly, in the runner's
journal/watchdog machinery — and the distributed fabric would have been
the third copy.  This module is the single home for the mechanics all of
them share:

* **Lease bookkeeping** — granting a lease stamps the holder and an
  expiry (``lease_until``) onto the entry and charges an attempt;
  releasing clears both.
* **Heartbeats** — a live holder refreshes ``lease_until`` *in memory
  only*.  Heartbeats are liveness, not durable state: recovery after a
  process crash never trusts them.
* **Expiry sweeps with the TOCTOU window closed** — reclaiming an
  expired lease involves a durable journal write (fsync), so a sweep
  over many entries is slow.  :meth:`LeaseManager.sweep_expired`
  snapshots candidates under the caller's lock, then *releases the lock
  between entries* and re-checks each entry's expiry against a fresh
  clock immediately before reclaiming it — a heartbeat that arrives
  after the snapshot (even mid-sweep) rescues its entry instead of
  queueing behind the whole sweep and losing the race.
* **Recovery counting** — an entry found mid-lease by a crash recovery
  pass more than ``max_recoveries`` times is poison (it keeps taking
  its executor down) and should be quarantined rather than requeued.

The result-before-journal half of the exactly-once contract is
:func:`repro.runner.fsio.atomic_write`.

Entries are duck-typed: anything with ``state``, ``worker``,
``lease_until``, ``attempts`` and ``recoveries`` attributes (the service
``Job``, the fabric ``WorkItem``) plugs in directly.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Protocol, runtime_checkable

__all__ = ["LeaseManager", "Leasable"]


@runtime_checkable
class Leasable(Protocol):
    """What :class:`LeaseManager` needs from an entry."""

    state: str
    worker: str | None
    lease_until: float | None
    attempts: int
    recoveries: int


class LeaseManager:
    """Lease-state engine shared by the job queue and the point queue.

    Parameters
    ----------
    active_states:
        Entry states that can hold a lease (e.g. ``("LEASED",
        "RUNNING")``).  Everything else is ignored by heartbeats and
        sweeps.
    lease_s:
        Default lease duration; individual grants/refreshes may
        override it.
    max_recoveries:
        How many crash recoveries an entry survives before
        :meth:`should_quarantine` says it is poison.
    clock:
        Injectable time source (tests freeze it).
    """

    def __init__(self, active_states: tuple[str, ...],
                 lease_s: float = 60.0, max_recoveries: int = 3,
                 clock: Callable[[], float] = time.time) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        if max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        self.active_states = tuple(active_states)
        self.lease_s = float(lease_s)
        self.max_recoveries = int(max_recoveries)
        self.clock = clock

    # -- grant / refresh / release -----------------------------------------
    def grant(self, entry: Leasable, worker: str,
              lease_s: float | None = None) -> float:
        """Stamp ``worker`` and an expiry onto ``entry``; charge an
        attempt.  Returns the new ``lease_until``."""
        entry.worker = str(worker)
        entry.attempts += 1
        entry.lease_until = self.clock() + (lease_s if lease_s is not None
                                            else self.lease_s)
        return entry.lease_until

    def refresh(self, entry: Leasable, lease_s: float | None = None) -> bool:
        """Heartbeat: extend a *live* holder's lease, in memory only.

        Returns ``False`` (and touches nothing) when the entry is not
        currently leased — a late heartbeat from a holder whose lease
        was already reclaimed must not resurrect it.
        """
        if entry.state not in self.active_states or entry.worker is None:
            return False
        entry.lease_until = self.clock() + (lease_s if lease_s is not None
                                            else self.lease_s)
        return True

    def release(self, entry: Leasable) -> None:
        """Clear the lease fields (completion, failure, requeue)."""
        entry.worker = None
        entry.lease_until = None

    # -- expiry ------------------------------------------------------------
    def expired(self, entry: Leasable, now: float | None = None,
                skip_workers: Iterable[str] = frozenset()) -> bool:
        """Whether ``entry`` holds a lease that has lapsed.

        ``skip_workers`` names holders known alive by other means (e.g.
        live threads of this process) — their leases are never treated
        as expired, because reclaiming a lease a live holder still
        works under would double-run the work.
        """
        if entry.state not in self.active_states:
            return False
        if entry.worker is None or entry.worker in skip_workers:
            return False
        if entry.lease_until is None:
            return False
        return entry.lease_until < (now if now is not None else self.clock())

    def sweep_expired(self, entries: Callable[[], Iterable[Leasable]],
                      lock, reclaim: Callable[[Leasable], None],
                      skip_workers: Iterable[str] = frozenset()) -> list:
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
        skip = frozenset(skip_workers)
        with lock:
            now = self.clock()
            candidates = [e for e in entries() if self.expired(e, now, skip)]
        touched = []
        for entry in candidates:
            with lock:
                if not self.expired(entry, self.clock(), skip):
                    continue  # heartbeat won the race; lease is live again
                reclaim(entry)
                touched.append(entry)
        return touched

    # -- recovery ----------------------------------------------------------
    def should_quarantine(self, entry: Leasable) -> bool:
        """Whether one more recovery would exceed ``max_recoveries``."""
        return entry.recoveries + 1 > self.max_recoveries

