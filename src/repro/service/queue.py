"""Persistent priority job queue with journaled claims and exactly-once
recovery.

State lives in two places with one source of truth:

* an append-only fsynced JSONL journal (``<state_dir>/queue.jsonl``,
  the :class:`~repro.runner.journal.RunJournal` discipline: one
  ``write`` + ``flush`` + ``fsync`` per event, torn tails dropped on
  read), which records every state transition;
* an in-memory ``{id: Job}`` map rebuilt by replaying the journal, so a
  restarted scheduler resumes exactly where the journal says the last
  one died.

Exactly-once contract
---------------------
A job reaches DONE at most once: ``complete()`` refuses a second
completion, and result files are written atomically *before* the
``job_done`` event is journaled — a crash between the two replays the
job, whose points then resolve from the ResultCache and atomically
overwrite the same file, leaving a single result entry.

A job lease is a journaled claim by one scheduler thread of this
process, with no deadline: a thread cannot go silent while its process
lives, so nothing in a live process ever reclaims a lease.  On
:meth:`recover` (scheduler restart), the one requeue, LEASED/RUNNING
jobs revert to SUBMITTED — their threads died with the old process.
Each revert increments ``recoveries``; a job that keeps taking the
scheduler down with it is quarantined after ``max_recoveries`` rather
than crash-looping forever.

Compaction (:meth:`compact`) rewrites the journal atomically, keeping
one ``job_snapshot`` record per terminal job and the raw event tail for
live ones, so long-lived service state dirs don't grow unbounded.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.obs import bind as obs_bind, emit as obs_emit, emitter
from repro.runner.journal import RunJournal
from repro.service.jobs import ACTIVE_STATES, Job, JobState

__all__ = ["JobQueue", "QueueError", "QueueWriteError"]


class QueueError(RuntimeError):
    """An illegal queue transition (unknown job, double completion...)."""


class QueueWriteError(QueueError):
    """The journal — the queue's durable source of truth — refused a
    write (ENOSPC, EIO).  The attempted transition did **not** happen:
    this journal is replayed on restart, so an un-journaled mutation
    would be silently undone by the next recovery.  The API layer maps
    this to ``503 + Retry-After``."""


class JobQueue:
    """Journal-backed priority queue of :class:`~repro.service.jobs.Job`.

    Thread-safe: every public method holds the queue lock.  ``registry``
    (optional) receives ``service_*`` counters/gauges.
    """

    def __init__(self, state_dir: str | Path, registry=None,
                 max_recoveries: int = 3,
                 clock=time.time, fs=None, health=None) -> None:
        self.state_dir = Path(state_dir)
        self.journal = RunJournal(self.state_dir / "queue.jsonl", fs=fs)
        self.health = health
        self.max_recoveries = int(max_recoveries)
        self.clock = clock
        self._lock = threading.RLock()
        #: Notified on every job-version bump (submits and requeues
        #: included), so SSE streams, long-polls and idle scheduler
        #: leases block here instead of spinning.
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._seq: dict[str, int] = {}  # submission order tiebreak
        self._next_seq = 0
        self._m_submitted = self._m_finished = self._m_leases = None
        self._m_recovered = self._m_depth = self._m_stage = None
        if registry is not None:
            self._m_submitted = registry.counter(
                "service_jobs_submitted_total", "jobs accepted into the queue",
                labelnames=("tenant",))
            self._m_finished = registry.counter(
                "service_jobs_finished_total", "jobs reaching a terminal state",
                labelnames=("state",))
            self._m_leases = registry.counter(
                "service_leases_total", "job leases granted")
            self._m_recovered = registry.counter(
                "service_leases_recovered_total",
                "leases reclaimed from a dead scheduler's threads")
            self._m_depth = registry.gauge(
                "service_queue_depth", "SUBMITTED jobs awaiting a worker")
            self._m_stage = registry.histogram(
                "service_job_stage_seconds",
                "wall seconds jobs spend between lifecycle stages",
                labelnames=("stage",),
                buckets=(0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0, 600.0))
        self._replay()

    # -- journal replay ----------------------------------------------------
    def _replay(self) -> None:
        for record in self.journal.events():
            event = record.get("event")
            if event in ("job_submitted", "job_snapshot"):
                job = Job.from_dict(record.get("job", {}))
                self._install(job)
            else:
                job = self._jobs.get(record.get("id", ""))
                if job is None:
                    continue
                self._apply(job, record)
        self._update_depth()

    def _install(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._seq[job.id] = self._next_seq
        self._next_seq += 1

    @staticmethod
    def _apply(job: Job, record: dict) -> None:
        event = record["event"]
        job.version += 1
        if event == "job_leased":
            job.state = JobState.LEASED
            job.worker = record.get("worker")
            job.leased_s = record.get("leased_s", job.leased_s)
            job.attempts = record.get("attempts", job.attempts)
        elif event == "job_running":
            job.state = JobState.RUNNING
            job.started_s = record.get("started_s", job.started_s)
        elif event == "job_requeued":
            job.state = JobState.SUBMITTED
            job.worker = None
            job.recoveries = record.get("recoveries", job.recoveries)
        elif event == "job_done":
            job.state = JobState.DONE
            job.result_path = record.get("result_path")
            job.finished_s = record.get("finished_s")
            job.elapsed_s = record.get("elapsed_s")
            job.runner = record.get("runner", {})
            job.worker = None
        elif event in ("job_failed", "job_quarantined"):
            job.state = (JobState.FAILED if event == "job_failed"
                         else JobState.QUARANTINED)
            job.error = record.get("error")
            job.finished_s = record.get("finished_s")
            job.worker = None
        elif event == "job_cancelled":
            job.state = JobState.CANCELLED
            job.finished_s = record.get("finished_s")

    def _update_depth(self) -> None:
        if self._m_depth is not None:
            self._m_depth.set(sum(
                1 for j in self._jobs.values()
                if j.state == JobState.SUBMITTED))

    def _finish_metric(self, state: str) -> None:
        if self._m_finished is not None:
            self._m_finished.labels(state=state).inc()

    def _bump(self, job: Job) -> None:
        """Advance the job's watcher version and wake every waiter.

        Call with the lock held (every transition does)."""
        job.version += 1
        self._cond.notify_all()

    def _observe_stage(self, stage: str, start: float | None,
                       end: float | None) -> None:
        """One stage-latency observation (submit->lease etc.)."""
        if self._m_stage is None or start is None or end is None:
            return
        self._m_stage.labels(stage=stage).observe(max(0.0, end - start))

    def _emit(self, job: Job, event: str, level: str = "info",
              **fields) -> None:
        """Obs event for one journaled transition, correlated by
        ``job_id`` (merged with any caller-bound request context)."""
        with obs_bind(job_id=job.id):
            obs_emit(event, level=level, tenant=job.tenant,
                     state=job.state, **fields)

    def _append(self, event: str, **fields) -> None:
        """Durable journal append, or :class:`QueueWriteError`.

        Unlike the fabric's audit journal, this journal IS the queue's
        recovery state — a transition that cannot be journaled must
        not happen at all, so the failure propagates (after flipping
        :attr:`health` to degraded).  The first append that lands
        after an outage resolves the degradation.
        """
        try:
            self.journal.append(event, **fields)
        except OSError as err:
            if self.health is not None:
                self.health.degrade("journal",
                                    f"{event} append failed: {err}")
            raise QueueWriteError(
                f"queue journal write failed ({event}): {err}") from err
        if self.health is not None:
            self.health.resolve("journal")

    # -- submission --------------------------------------------------------
    def submit(self, spec: dict, tenant: str = "anonymous",
               priority: int = 0) -> Job:
        """Durably enqueue a validated spec; returns the new job."""
        with self._lock:
            job = Job.create(spec, tenant=tenant, priority=priority,
                             now=self.clock())
            self._append("job_submitted", job=job.to_dict())
            self._install(job)
            if self._m_submitted is not None:
                self._m_submitted.labels(tenant=tenant).inc()
            self._update_depth()
            self._bump(job)
            self._emit(job, "job_submitted", priority=job.priority,
                       spec_key=job.spec_key)
            return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job that has not started; raises otherwise."""
        with self._lock:
            job = self.get(job_id)
            if job.state != JobState.SUBMITTED:
                raise QueueError(
                    f"job {job_id} is {job.state}; only SUBMITTED jobs "
                    f"can be cancelled")
            now = self.clock()
            self._append("job_cancelled", id=job.id, finished_s=now)
            job.state = JobState.CANCELLED
            job.finished_s = now
            self._finish_metric(JobState.CANCELLED)
            self._update_depth()
            self._bump(job)
            self._emit(job, "job_cancelled")
            return job

    # -- worker protocol ---------------------------------------------------
    def lease(self, worker: str, wait_s: float = 0.0,
              stop: threading.Event | None = None) -> Job | None:
        """Highest-priority SUBMITTED job, leased to ``worker``.

        Priority descends; equal priorities serve in submission order.
        Returns ``None`` when no job is ready.  With ``wait_s`` > 0 an
        idle call blocks up to that long for a job to be submitted or
        requeued.  Once ``stop`` is set no job is leased, and a
        :meth:`wake` after setting it ends the wait at once; ``stop``
        is read under the queue lock, so that wake cannot be missed.
        """
        deadline = time.monotonic() + wait_s
        with self._cond:
            while stop is None or not stop.is_set():
                ready = [j for j in self._jobs.values()
                         if j.state == JobState.SUBMITTED]
                if ready:
                    job = min(ready,
                              key=lambda j: (-j.priority, self._seq[j.id]))
                    if self._grant(job, worker):
                        return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return None

    def _grant(self, job: Job, worker: str) -> bool:
        """Lease ``job`` to ``worker``; ``False`` if the journal refused.

        A lease that would vanish on replay must not be handed out: the
        grant is not applied and wakes nobody, and the caller waits out
        its ``wait_s`` before asking again, so an idle worker does not
        spin on a failing disk.
        """
        now = self.clock()
        try:
            self._append("job_leased", id=job.id, worker=worker,
                         leased_s=now, attempts=job.attempts + 1)
        except QueueWriteError:
            return False
        job.state = JobState.LEASED
        job.worker = worker
        job.attempts += 1
        job.leased_s = now
        if self._m_leases is not None:
            self._m_leases.inc()
        self._observe_stage("submit_to_lease", job.created_s, now)
        self._update_depth()
        self._bump(job)
        self._emit(job, "job_leased", worker=worker, attempts=job.attempts)
        return True

    def mark_running(self, job_id: str) -> None:
        """LEASED -> RUNNING (the worker began executing)."""
        with self._lock:
            job = self.get(job_id)
            if job.state != JobState.LEASED:
                raise QueueError(f"job {job_id} is {job.state}, not LEASED")
            now = self.clock()
            self._append("job_running", id=job.id, started_s=now)
            job.state = JobState.RUNNING
            job.started_s = now
            self._observe_stage("lease_to_start", job.leased_s, now)
            self._bump(job)
            self._emit(job, "job_running")

    def set_progress(self, job_id: str, done: int, total: int,
                     point: str | None = None,
                     cached: bool = False) -> None:
        """Record live point-level progress on the job document.

        This is liveness, not durable state: it only mutates memory
        (never the journal) and vanishes on restart — which is correct,
        because a restarted job re-runs from zero.
        Each call bumps the job version so SSE/long-poll watchers wake
        immediately.  Unknown or already-terminal jobs are ignored (a
        straggler callback must not resurrect a finished doc).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return
            cached_n = (int(job.progress.get("cached", 0))
                        + (1 if cached else 0))
            job.progress = {"done": int(done), "total": int(total),
                            "cached": cached_n,
                            "point": None if point is None else str(point),
                            "updated_s": self.clock()}
            self._bump(job)

    def wake(self) -> None:
        """Wake every blocked :meth:`lease` and watcher to re-check."""
        with self._cond:
            self._cond.notify_all()

    def wait_version(self, job_id: str, version: int,
                     timeout_s: float = 10.0) -> Job | None:
        """Block until the job's version exceeds ``version``.

        Returns the job as soon as it has changed past what the caller
        last saw, or ``None`` on timeout (the caller's cue to send a
        keep-alive).  The wait is real wall time on the condition
        variable — watchers are operator-facing, so the injected queue
        clock (which tests freeze) deliberately plays no part.
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise QueueError(f"unknown job {job_id!r}")
                if job.version > version:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)

    def complete(self, job_id: str, result_path: str,
                 runner: dict | None = None) -> Job:
        """RUNNING/LEASED -> DONE; refuses a duplicate completion."""
        with self._lock:
            job = self.get(job_id)
            if job.terminal:
                raise QueueError(
                    f"job {job_id} already terminal ({job.state}); "
                    f"refusing duplicate completion")
            now = self.clock()
            elapsed = (round(now - job.started_s, 6)
                       if job.started_s is not None else None)
            self._append("job_done", id=job.id,
                                result_path=str(result_path),
                                finished_s=now, elapsed_s=elapsed,
                                runner=dict(runner or {}))
            job.state = JobState.DONE
            job.result_path = str(result_path)
            job.finished_s = now
            job.elapsed_s = elapsed
            job.runner = dict(runner or {})
            job.worker = None
            self._finish_metric(JobState.DONE)
            self._observe_stage("start_to_complete", job.started_s, now)
            self._update_depth()
            self._bump(job)
            self._emit(job, "job_done", elapsed_s=elapsed,
                       result_path=job.result_path)
            return job

    def fail(self, job_id: str, error: str,
             quarantine: bool = False) -> Job:
        """Terminal failure: FAILED, or QUARANTINED for poison work."""
        with self._lock:
            job = self.get(job_id)
            if job.terminal:
                raise QueueError(
                    f"job {job_id} already terminal ({job.state})")
            now = self.clock()
            event = "job_quarantined" if quarantine else "job_failed"
            self._append(event, id=job.id, error=str(error),
                                finished_s=now)
            job.state = (JobState.QUARANTINED if quarantine
                         else JobState.FAILED)
            job.error = str(error)
            job.finished_s = now
            job.worker = None
            self._finish_metric(job.state)
            self._update_depth()
            self._bump(job)
            self._emit(job, event, level="error", error=job.error)
            # Postmortem evidence, captured while it still exists: the
            # recent event ring lands next to the queue journal.
            try:
                emitter().dump(reason=f"job {job.id} {job.state}",
                               directory=self.state_dir)
            except Exception:
                pass
            return job

    def requeue(self, job_id: str) -> Job:
        """Send a job whose scheduler died back to SUBMITTED.

        Crash recovery is the only requeue (a failed job is terminal),
        so each one charges a recovery.
        """
        with self._lock:
            job = self.get(job_id)
            if job.terminal:
                raise QueueError(
                    f"job {job_id} already terminal ({job.state})")
            recoveries = job.recoveries + 1
            self._append("job_requeued", id=job.id, recoveries=recoveries)
            job.state = JobState.SUBMITTED
            job.worker = None
            job.recoveries = recoveries
            if self._m_recovered is not None:
                self._m_recovered.inc()
            self._update_depth()
            self._bump(job)
            self._emit(job, "job_requeued", level="warn",
                       recoveries=recoveries)
            return job

    # -- crash recovery ----------------------------------------------------
    def recover(self) -> list[Job]:
        """Reclaim every lease left by a dead scheduler process.

        LEASED/RUNNING jobs revert to SUBMITTED (their holders died with
        the previous process); a job seen mid-lease more than
        ``max_recoveries`` times is quarantined instead — it keeps
        taking the scheduler down with it.  Returns the touched jobs.
        """
        with self._lock:
            touched = []
            for job in self._jobs.values():
                if job.state not in (JobState.LEASED, JobState.RUNNING):
                    continue
                if job.recoveries + 1 > self.max_recoveries:
                    self.fail(job.id,
                              f"quarantined after {job.recoveries + 1} "
                              f"scheduler crashes mid-job",
                              quarantine=True)
                else:
                    self.requeue(job.id)
                touched.append(job)
            return touched

    # -- inspection --------------------------------------------------------
    def get(self, job_id: str) -> Job:
        """The job, or :class:`QueueError` listing what exists."""
        job = self._jobs.get(job_id)
        if job is None:
            raise QueueError(f"unknown job {job_id!r}")
        return job

    def doc(self, job_id: str) -> dict:
        """The job's API doc, taken whole under the queue lock.

        Readers that act on several fields (version, state, result
        path) read them from this one doc, so a transition landing
        between two reads of the live job cannot split them.
        """
        with self._lock:
            return self.get(job_id).to_dict()

    def jobs(self, state: str | None = None,
             tenant: str | None = None) -> list[Job]:
        """Jobs in submission order, optionally filtered."""
        with self._lock:
            out = [j for j in self._jobs.values()
                   if (state is None or j.state == state)
                   and (tenant is None or j.tenant == tenant)]
            out.sort(key=lambda j: self._seq[j.id])
            return out

    def active_count(self, tenant: str) -> int:
        """SUBMITTED+LEASED+RUNNING jobs for one tenant (quota check)."""
        with self._lock:
            return sum(1 for j in self._jobs.values()
                       if j.tenant == tenant and j.state in ACTIVE_STATES)

    def depth(self) -> int:
        """SUBMITTED jobs awaiting a worker."""
        with self._lock:
            return sum(1 for j in self._jobs.values()
                       if j.state == JobState.SUBMITTED)

    # -- maintenance -------------------------------------------------------
    def compact(self) -> tuple[int, int]:
        """Atomically rewrite the journal; returns ``(before, after)``.

        Terminal jobs collapse to one ``job_snapshot`` record each;
        live jobs keep their raw event tail (their snapshots are
        re-emitted as ``job_snapshot`` too, since in-memory state *is*
        the replay of those events).
        """
        with self._lock:
            before = len(self.journal.events())
            records = [{"event": "job_snapshot", "job": job.to_dict()}
                       for job in self.jobs()]
            after = self.journal.rewrite(records)
            return before, after
