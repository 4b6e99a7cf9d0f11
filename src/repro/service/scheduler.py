"""Background scheduler: drains the job queue through the cached Runner.

Worker threads lease jobs off the :class:`~repro.service.queue.JobQueue`
and execute them through the existing execution substrate:

* **experiment jobs** run ``spec.run(quick=..., runner=...)`` with an
  inline :class:`~repro.runner.Runner` wired to the service's shared
  :class:`~repro.runner.ResultCache`, then save the schema-versioned
  result envelope exactly as ``repro run`` does — ``meta`` carries only
  the variant, so a job's envelope is byte-identical to the file
  ``repro run`` writes for the same spec on any backend (runner
  accounting travels on the *job*, as it travels on the run journal's
  ``experiment_done`` record);
* **points jobs** resolve their batch through the runner with
  ``failure_policy="quarantine"`` — a poison point quarantines the job
  instead of wedging a worker — and persist a deterministic summary
  envelope (:func:`points_envelope`).

All of the runner's self-healing (watchdog, bounded retry, corrupt
cache-entry healing) is inherited; the scheduler adds job-level retry
(``job_retries``), lease heartbeats driven by runner progress
callbacks, and a maintenance sweep that reclaims leases from workers
that are *not* threads of this process (dead remote holders).  Result
files are written atomically before the DONE event is journaled, which
is what makes completion exactly-once across scheduler crashes.
"""

from __future__ import annotations

import json
import os
import threading
import time
import traceback
from pathlib import Path

from repro.fabric.lease import atomic_write
from repro.obs import bind as obs_bind, emit as obs_emit
from repro.runner import ExecutionBackend, ResultCache, Runner, RunnerError
from repro.service.jobs import Job, build_points
from repro.service.queue import JobQueue

__all__ = ["Scheduler", "points_envelope", "write_result"]

#: Schema version of the points-job result envelope.
POINTS_SCHEMA_VERSION = 1


def _summarize(value) -> dict:
    """Deterministic JSON digest of one resolved point's measurement."""
    if value is None:
        return {"status": "quarantined"}
    if hasattr(value, "images_per_second"):
        return {
            "images_per_second": value.images_per_second,
            "scaling_efficiency": value.scaling_efficiency,
            "mean_iteration_seconds": value.stats.mean_iteration_seconds,
        }
    if hasattr(value, "latency_us"):
        return {"latency_us": value.latency_us}
    if isinstance(value, dict):
        return value
    return {"repr": repr(value)}


def points_envelope(points, values) -> str:
    """Schema-versioned JSON for a resolved raw-points batch.

    Depends only on the points and their (deterministic) measurements,
    so identical submissions produce byte-identical envelopes.
    """
    from repro import package_version

    rows = [{"key": point.key(), "point": point.payload(),
             "summary": _summarize(value)}
            for point, value in zip(points, values)]
    return json.dumps({
        "schema_version": POINTS_SCHEMA_VERSION,
        "package_version": package_version(),
        "kind": "points",
        "rows": rows,
    }, indent=1)


def write_result(path: str | Path, text: str) -> Path:
    """Atomic result write: temp file + fsync + rename.

    Replaying a crashed job rewrites the same path, so the directory
    holds exactly one entry per job no matter how many attempts ran.
    Delegates to the shared exactly-once primitive in
    :func:`repro.fabric.lease.atomic_write`.
    """
    return atomic_write(path, text)


class _JobBackend:
    """A per-job view over a shared execution backend.

    Delegates everything to the wrapped backend but defaults the
    per-call progress hook (``progress=`` on :meth:`run`) to this job's
    heartbeat-and-progress callback — an experiment driver that calls
    plain ``runner.run(points)`` still streams live progress, and two
    concurrent jobs sharing one fabric can never cross-wire callbacks.
    """

    def __init__(self, backend: ExecutionBackend, progress) -> None:
        self._backend = backend
        self._progress = progress

    def run(self, points, **kwargs):
        kwargs.setdefault("progress", self._progress)
        return self._backend.run(points, **kwargs)

    def __getattr__(self, name):
        return getattr(self._backend, name)


class Scheduler:
    """Thread worker pool executing queued jobs exactly once.

    Parameters
    ----------
    queue:
        The persistent job queue (already :meth:`~JobQueue.recover`-ed
        by the service on startup).
    results_dir:
        Where result envelopes land, one ``<job_id>.json`` each.
    cache:
        Shared :class:`ResultCache` — the dedup layer that turns
        identical resubmissions into near-instant completions.
    registry:
        Telemetry registry shared with the queue and API; runner
        counters (``runner_*``) and ``service_*`` counters land here.
    workers / lease_s / poll_s / job_retries / point_retries:
        Pool width, lease duration, idle poll interval, job-level and
        point-level retry budgets.
    backend:
        Optional :class:`~repro.runner.ExecutionBackend` that executes
        every job's points instead of the default inline
        :class:`Runner` — pass a
        :class:`~repro.fabric.FabricRunner` to fan jobs out to pulled
        workers.  Job-level retry, lease heartbeats and result-envelope
        bytes are unchanged either way.
    """

    def __init__(self, queue: JobQueue, results_dir: str | Path,
                 cache: ResultCache | None = None, registry=None,
                 workers: int = 2, lease_s: float = 60.0,
                 poll_s: float = 0.05, job_retries: int = 1,
                 point_retries: int = 1,
                 timeout_s: float | None = None,
                 backend: ExecutionBackend | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.backend = backend
        self.queue = queue
        self.results_dir = Path(results_dir)
        self.cache = cache
        self.registry = registry
        self.workers = int(workers)
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.job_retries = int(job_retries)
        self.point_retries = int(point_retries)
        self.timeout_s = timeout_s
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._m_seconds = self._m_errors = None
        if registry is not None:
            self._m_seconds = registry.counter(
                "service_job_seconds_total",
                "host wall seconds spent executing jobs")
            self._m_errors = registry.counter(
                "service_job_errors_total", "job execution errors",
                labelnames=("terminal",))

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent while running)."""
        if self._threads:
            return
        self._stop.clear()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Signal the workers and join them."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def worker_ids(self) -> set[str]:
        """Lease-holder names of this process's live workers."""
        return {self._worker_id(t.name) for t in self._threads
                if t.is_alive()}

    @staticmethod
    def _worker_id(thread_name: str) -> str:
        return f"{os.getpid()}:{thread_name}"

    # -- the loop ----------------------------------------------------------
    def _worker_loop(self) -> None:
        worker = self._worker_id(threading.current_thread().name)
        while not self._stop.is_set():
            job = self.queue.lease(worker, lease_s=self.lease_s)
            if job is None:
                self._stop.wait(self.poll_s)
                continue
            try:
                self._execute(job)
            except Exception:  # pragma: no cover - last-ditch guard
                # A worker must never die with a lease held; anything
                # the per-job handling missed fails the job instead.
                try:
                    self.queue.fail(job.id, traceback.format_exc(limit=5))
                except Exception:
                    pass

    def drain(self, timeout: float = 60.0, poll: float = 0.02) -> bool:
        """Block until no SUBMITTED/LEASED/RUNNING job remains."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            live = [j for j in self.queue.jobs() if not j.terminal]
            if not live:
                return True
            time.sleep(poll)
        return False

    def sweep_leases(self) -> list[Job]:
        """Reclaim expired leases not held by this process's threads."""
        return self.queue.requeue_expired(skip_workers=self.worker_ids())

    # -- execution ---------------------------------------------------------
    def _runner(self, job: Job, policy: str) -> ExecutionBackend:
        """The execution backend for one job.

        The configured ``backend`` if one was injected, else a fresh
        inline :class:`Runner`; both satisfy
        :class:`~repro.runner.ExecutionBackend`, so the job handlers
        below are backend-agnostic.  An injected backend is shared by
        every concurrent job, so it comes back wrapped in a per-job
        view that threads *this* job's heartbeat/progress callback
        into each call without mutating shared state.
        """
        def progress(done, total, point, cached) -> None:
            self.queue.heartbeat(job.id, lease_s=self.lease_s)
            self.queue.set_progress(job.id, done, total,
                                    point=point.describe(), cached=cached)

        if self.backend is not None:
            return _JobBackend(self.backend, progress)
        return Runner(workers=0, cache=self.cache, registry=self.registry,
                      progress=progress, retries=self.point_retries,
                      timeout_s=self.timeout_s, failure_policy=policy)

    def _execute(self, job: Job) -> None:
        # Bind the job id for the whole execution: every event emitted
        # below this frame — including fabric hops, whose transport
        # forwards the binding as ``X-Repro-Context`` — correlates back
        # to this job.
        with obs_bind(job_id=job.id):
            self.queue.mark_running(job.id)
            obs_emit("job_execute_start", kind=(
                "experiment" if "experiment" in job.spec else "points"))
            start = time.perf_counter()
            try:
                if "experiment" in job.spec:
                    result_path, runner_meta = self._run_experiment(job)
                else:
                    result_path, runner_meta = self._run_batch(job)
            except Exception as err:
                obs_emit("job_execute_failed", level="error",
                         error=f"{type(err).__name__}: {err}")
                self._handle_error(job, err)
                return
            elapsed = time.perf_counter() - start
            if self._m_seconds is not None:
                self._m_seconds.inc(elapsed)
            obs_emit("job_execute_done", elapsed_s=round(elapsed, 6))
            self.queue.complete(job.id, str(result_path),
                                runner=runner_meta)

    def _run_experiment(self, job: Job) -> tuple[Path, dict]:
        from repro.bench.registry import REGISTRY

        spec = REGISTRY[job.spec["experiment"]]
        variant = job.spec["variant"]
        runner = self._runner(job, policy="raise")
        result = spec.run(quick=variant == "quick",
                          runner=runner if spec.parallelizable else None)
        # Exactly the serial CLI envelope: meta carries the variant
        # alone, so API and `repro run` results are byte-identical.
        result.meta = {"variant": variant}
        path = self.results_dir / f"{job.id}.json"
        write_result(path, result.to_json())
        return path, dict(runner.meta())

    def _run_batch(self, job: Job) -> tuple[Path, dict]:
        points = build_points(job.spec)
        runner = self._runner(job, policy="quarantine")
        values = runner.run(points, timeout_s=self.timeout_s,
                            retries=self.point_retries)
        # A quarantined point resolves to None (the runner's documented
        # sentinel).  Detecting poison from this batch's own values —
        # rather than slicing the shared runner.quarantined list — stays
        # correct when concurrent jobs share one injected backend and
        # their quarantine records interleave.
        poison_keys = list(dict.fromkeys(
            p.key() for p, v in zip(points, values) if v is None))
        if poison_keys:
            errors = {q["key"]: q["error"]
                      for q in getattr(runner, "quarantined", ())}
            detail = "; ".join(errors.get(k, "quarantined")
                               for k in poison_keys[:3])
            raise RunnerError(
                f"{len(poison_keys)} point(s) quarantined: {detail}")
        path = self.results_dir / f"{job.id}.json"
        write_result(path, points_envelope(points, values))
        return path, dict(runner.meta())

    def _handle_error(self, job: Job, err: Exception) -> None:
        message = f"{type(err).__name__}: {err}"
        poison = isinstance(err, RunnerError)
        terminal = poison or job.attempts > self.job_retries
        if self._m_errors is not None:
            self._m_errors.labels(terminal=str(terminal).lower()).inc()
        if terminal:
            self.queue.fail(job.id, message, quarantine=poison)
        else:
            self.queue.requeue(job.id, error=message)
