"""Background scheduler: drains the job queue through the cached Runner.

Worker threads lease jobs off the :class:`~repro.service.queue.JobQueue`
and execute each one through its own :class:`~repro.runner.Runner`
front-end, wired to the service's shared
:class:`~repro.runner.ResultCache`:

* **experiment jobs** run ``spec.run(quick=..., runner=...)`` and save
  the schema-versioned result envelope exactly as ``repro run`` does —
  ``meta`` carries only the variant, so a job's envelope is
  byte-identical to the file ``repro run`` writes for the same spec on
  any backend (runner accounting travels on the *job*, as it travels
  on the run journal's ``experiment_done`` record);
* **points jobs** resolve their batch and persist a deterministic
  summary envelope (:func:`points_envelope`).

The per-job runner counts only its own job's points and publishes
each resolved point as the job's live progress.  Its cache misses run
inline, or on an injected backend's ``_drive`` (a
:class:`~repro.fabric.FabricRunner` fans them out to pulled workers).

A point's own budget (``point_retries``) is the one retry layer a job
has: a point that spends it raises :class:`~repro.runner.RunnerError`
and the job ends QUARANTINED; any other error ends it FAILED.  No
failure is requeued.  A job lease is a journaled claim by one of this
process's threads and has no deadline; only a dead scheduler's leases
come back, through the queue's crash recovery at start.  Result files
are written atomically before the DONE event is journaled, which is
what makes completion exactly-once across scheduler crashes.
"""

from __future__ import annotations

import json
import os
import threading
import time
import traceback
from pathlib import Path

from repro.obs import bind as obs_bind, emit as obs_emit
from repro.runner import ResultCache, Runner, RunnerError
from repro.runner.fsio import atomic_write
from repro.service.jobs import Job, build_points
from repro.service.queue import JobQueue

__all__ = ["Scheduler", "points_envelope", "write_result"]

#: Schema version of the points-job result envelope.
POINTS_SCHEMA_VERSION = 1


def _summarize(value) -> dict:
    """Deterministic JSON digest of one resolved point's measurement."""
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
    """Atomic result write: :func:`~repro.runner.fsio.atomic_write`.

    Replaying a crashed job rewrites the same path, so the directory
    holds exactly one entry per job no matter how many attempts ran.
    """
    return atomic_write(path, text)


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
    workers / poll_s:
        Pool width, and the longest one idle lease waits for work.  An
        idle worker blocks on the queue's condition and starts a job
        the moment it is submitted or requeued; :meth:`stop` wakes it
        at once.
    point_retries:
        Every point's budget: how many charged failures it may retry.
        A point that spends it quarantines its job.
    backend:
        Optional :class:`Runner` whose ``_drive`` executes every job's
        cache misses instead of the per-job runner's inline loop — pass
        a :class:`~repro.fabric.FabricRunner` (default ``raise`` policy,
        same ``cache``) to fan jobs out to pulled workers.  Job
        accounting, progress and result-envelope bytes are unchanged
        either way.
    """

    def __init__(self, queue: JobQueue, results_dir: str | Path,
                 cache: ResultCache | None = None, registry=None,
                 workers: int = 2, poll_s: float = 0.05,
                 point_retries: int = 1,
                 backend: Runner | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.backend = backend
        self.queue = queue
        self.results_dir = Path(results_dir)
        self.cache = cache
        self.registry = registry
        self.workers = int(workers)
        self.poll_s = float(poll_s)
        self.point_retries = int(point_retries)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._m_seconds = None
        if registry is not None:
            self._m_seconds = registry.counter(
                "service_job_seconds_total",
                "host wall seconds spent executing jobs")

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
        """Signal the workers, wake the idle ones, and join them."""
        self._stop.set()
        self.queue.wake()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    # -- the loop ----------------------------------------------------------
    def _worker_loop(self) -> None:
        worker = f"{os.getpid()}:{threading.current_thread().name}"
        while not self._stop.is_set():
            job = self.queue.lease(worker, wait_s=self.poll_s,
                                   stop=self._stop)
            if job is None:
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

    # -- execution ---------------------------------------------------------
    def _runner(self, job: Job) -> Runner:
        """This job's Runner front-end.

        It shares the service cache and registry but counts only this
        job's points, and every resolved point updates the job's live
        progress.  With an injected backend its cache misses run on
        that backend's ``_drive``; otherwise inline.
        """
        def progress(done, total, point, cached) -> None:
            self.queue.set_progress(job.id, done, total,
                                    point=point.describe(), cached=cached)

        backend = self.backend
        runner = Runner(workers=0 if backend is None else backend.workers,
                        cache=self.cache, registry=self.registry,
                        progress=progress, retries=self.point_retries)
        if backend is not None:
            runner._drive = backend._drive
        return runner

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
                message = f"{type(err).__name__}: {err}"
                obs_emit("job_execute_failed", level="error", error=message)
                # A spent point budget is poison; nothing is retried.
                self.queue.fail(job.id, message,
                                quarantine=isinstance(err, RunnerError))
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
        runner = self._runner(job)
        result = spec.run(quick=variant == "quick",
                          runner=runner if spec.parallelizable else None)
        # Exactly the serial CLI envelope: meta carries the variant
        # alone, so API and `repro run` results are byte-identical.
        result.meta = {"variant": variant}
        path = self.results_dir / f"{job.id}.json"
        write_result(path, result.to_json())
        return path, runner.meta()

    def _run_batch(self, job: Job) -> tuple[Path, dict]:
        points = build_points(job.spec)
        runner = self._runner(job)
        values = runner.run(points)
        path = self.results_dir / f"{job.id}.json"
        write_result(path, points_envelope(points, values))
        return path, runner.meta()
