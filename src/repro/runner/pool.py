"""The parallel cached experiment runner, hardened against worker failure.

:meth:`Runner.run` resolves a batch of independent simulation points:

1. every point's content key is computed and looked up in the (optional)
   :class:`~repro.runner.cache.ResultCache` — hits resolve immediately;
2. duplicate keys within the batch collapse to one execution;
3. the remaining points (the misses) run through :meth:`Runner._drive`
   — inline (``workers <= 1``), across a ``ProcessPoolExecutor``
   (``workers >= 2``, every miss, so the watchdog and crash isolation
   cover a lone point too), or, in the
   :class:`~repro.fabric.runner.FabricRunner` subclass, over the
   fabric's lease queue — and results **merge back in input order**
   regardless of completion order, so a parallel run is
   indistinguishable from the serial one;
4. freshly computed values are written back to the cache, progress
   callbacks fire per point, :mod:`repro.telemetry` counters record
   hits / executions / wall seconds, and traced measurements are
   exported to ``trace_dir``.

Everything but step 3 is this module's batch front-end, shared by every
backend: one dedup, one cache lookup, one failure policy, one set of
``runner_*`` metrics and one :meth:`Runner.meta`.

Determinism contract: a point's result depends only on the point (each
execution builds a fresh simulation :class:`~repro.sim.Environment`), so
serial, parallel and warm-cache runs of the same batch return
bit-identical values.

Self-healing: the pool survives the failures a long sweep actually hits.

* **Worker crash** — a worker dying (segfault, ``os._exit``, OOM kill)
  breaks the whole ``ProcessPoolExecutor`` and fails *every* in-flight
  future, so the culprit is unknown.  The runner respawns the pool and
  replays the victims one at a time (isolation): a point that crashes
  *solo* is the culprit and is charged an attempt; innocents are not.
* **Hung point** — with ``timeout_s`` set, a point running past its
  watchdog deadline is charged a timeout; its worker is terminated (a
  running future cannot be cancelled), the pool respawns, and in-flight
  innocents are resubmitted uncharged.
* **Bounded retry** — a charged failure is retried up to ``retries``
  times with exponential backoff and deterministic per-(key, attempt)
  jitter.
* **Quarantine** — with ``failure_policy="quarantine"``, a point that
  exhausts its retries resolves to ``None`` and is recorded in
  :attr:`Runner.quarantined` instead of sinking the batch (the default
  ``"raise"`` preserves the historical fail-fast contract).
* **Progress isolation** — an exception from the ``progress`` callback
  is counted (``runner_progress_errors_total``) and swallowed; only
  ``KeyboardInterrupt`` still propagates, after a graceful pool drain.
"""

from __future__ import annotations

import json
import os
import random
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.runner.cache import ResultCache, sweep_stale_tmp
from repro.runner.simpoint import SimPoint
from repro.telemetry.metrics import MetricRegistry

__all__ = ["Runner", "RunnerError", "RunnerStats"]


class RunnerError(RuntimeError):
    """A point failed to execute; carries which one."""


@dataclass
class RunnerStats:
    """Cumulative accounting across a runner's lifetime."""

    points: int = 0
    cache_hits: int = 0
    executed: int = 0
    deduplicated: int = 0
    execute_seconds: float = 0.0
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    pool_respawns: int = 0
    progress_errors: int = 0
    traces_captured: int = 0

    def as_dict(self) -> dict:
        """Plain dict (JSON-able)."""
        return {
            "points": self.points,
            "cache_hits": self.cache_hits,
            "cache_misses": self.points - self.cache_hits,
            "executed": self.executed,
            "deduplicated": self.deduplicated,
            "execute_seconds": round(self.execute_seconds, 3),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
            "pool_respawns": self.pool_respawns,
            "progress_errors": self.progress_errors,
            "traces_captured": self.traces_captured,
        }

    def delta(self, before: dict) -> dict:
        """Difference vs an earlier :meth:`as_dict` snapshot."""
        now = self.as_dict()
        return {
            k: round(now[k] - before.get(k, 0), 3) if isinstance(now[k], float)
            else now[k] - before.get(k, 0)
            for k in now
        }


def _execute(point: SimPoint):
    """Top-level worker entry (must be picklable by name)."""
    return point.execute()


class Runner:
    """The batch front-end: result cache + inline or process-pool execution.

    Subclasses change only :meth:`_drive`, how a batch's cache misses
    run (:class:`~repro.fabric.runner.FabricRunner` runs them on a fleet
    of pull-workers).

    Parameters
    ----------
    workers:
        ``0`` or ``1`` executes inline (the default: exact serial
        behaviour, useful with a cache alone); ``>= 2`` fans out across
        that many worker processes.
    cache:
        A :class:`~repro.runner.cache.ResultCache`, or ``None`` for no
        memoization.
    registry:
        A :class:`~repro.telemetry.MetricRegistry` to record runner
        counters into; a private one is created when omitted.
    progress:
        ``progress(done, total, point, cached)`` called after each point
        resolves (in resolution order, not input order).  Exceptions it
        raises are counted and swallowed — a broken progress bar must not
        abort a sweep.
    retries:
        How many times a failed/crashed/timed-out point is retried
        before it is terminal (default 0: fail on first error, the
        historical behaviour).
    backoff_s / max_backoff_s:
        Exponential-backoff base and cap between retries of one key;
        jitter is deterministic per (key, attempt).
    timeout_s:
        Per-point watchdog for pool execution: a point running longer is
        killed (its worker terminated, the pool respawned) and charged a
        timeout.  ``None`` (default) disables the watchdog.  Inline
        execution cannot be interrupted, so the watchdog only applies
        with ``workers >= 2``.
    failure_policy:
        ``"raise"`` (default) re-raises the first terminal failure as
        :class:`RunnerError`; ``"quarantine"`` records it in
        :attr:`quarantined`, resolves the point to ``None`` and keeps
        going.
    trace_dir:
        When set, every resolved measurement carrying a span recorder
        (``measurement.trace``, from a traced :class:`TrainPoint`) has
        its spans exported to ``<trace_dir>/<key[:16]>.trace.json`` in
        the :mod:`repro.trace` span format.  Writes are atomic (temp
        file + rename) and stale temp files from dead writers are swept
        on every batch; cache hits are captured too, so a warm resume
        still materializes the trace files.
    """

    def __init__(self, workers: int = 0,
                 cache: ResultCache | None = None,
                 registry: MetricRegistry | None = None,
                 progress: Callable[[int, int, SimPoint, bool], None] | None = None,
                 retries: int = 0,
                 backoff_s: float = 0.05,
                 max_backoff_s: float = 2.0,
                 timeout_s: float | None = None,
                 failure_policy: str = "raise",
                 trace_dir: str | Path | None = None,
                 ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if failure_policy not in ("raise", "quarantine"):
            raise ValueError(
                f"failure_policy must be 'raise' or 'quarantine', "
                f"got {failure_policy!r}"
            )
        self.workers = int(workers)
        self.cache = cache
        self.progress = progress
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.timeout_s = timeout_s
        self.failure_policy = failure_policy
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.registry = registry if registry is not None else MetricRegistry()
        self.stats = RunnerStats()
        #: Terminal failures recorded under ``failure_policy="quarantine"``:
        #: ``{"key", "point", "error"}`` dicts, in failure order.
        self.quarantined: list[dict] = []
        self._m_points = self.registry.counter(
            "runner_points_total", "simulation points resolved",
            labelnames=("status",))
        self._m_batches = self.registry.counter(
            "runner_batches_total", "run() invocations")
        self._m_seconds = self.registry.counter(
            "runner_execute_seconds_total",
            "host wall seconds spent executing points")
        self._m_retries = self.registry.counter(
            "runner_retries_total", "point retry attempts")
        self._m_timeouts = self.registry.counter(
            "runner_timeouts_total", "points killed by the watchdog")
        self._m_quarantined = self.registry.counter(
            "runner_quarantined_total", "points quarantined after retries")
        self._m_respawns = self.registry.counter(
            "runner_pool_respawns_total", "worker pool respawns")
        self._m_progress_errors = self.registry.counter(
            "runner_progress_errors_total",
            "exceptions swallowed from progress callbacks")
        self._m_traces = self.registry.counter(
            "runner_traces_captured_total",
            "span traces exported to trace_dir")
        self._m_workers = self.registry.gauge(
            "runner_workers", "configured worker processes")
        self._m_workers.set(self.workers)

    # -- the core ----------------------------------------------------------
    def run(self, points: Sequence[SimPoint], *,
            timeout_s: float | None = None,
            retries: int | None = None,
            progress: Callable[[int, int, SimPoint, bool], None] | None = None,
            ) -> list:
        """Resolve every point; results are returned in input order.

        The keyword-only arguments override the configured values for
        this batch alone.  They are threaded through as locals — never
        written to the instance — so concurrent batches on one shared
        runner cannot cross-wire each other's callbacks or budgets.
        """
        points = list(points)
        timeout_s = self.timeout_s if timeout_s is None else timeout_s
        retries = self.retries if retries is None else int(retries)
        progress = self.progress if progress is None else progress
        self._m_batches.inc()
        self.stats.points += len(points)
        results: list = [None] * len(points)
        done = 0

        # Group input positions by content key (batch-level dedup).
        groups: dict[str, list[int]] = {}
        for i, point in enumerate(points):
            groups.setdefault(point.key(), []).append(i)
        self.stats.deduplicated += len(points) - len(groups)

        def resolve(key: str, value, cached: bool,
                    status: str | None = None) -> None:
            nonlocal done
            for i in groups[key]:
                results[i] = value
                done += 1
                label = status or ("cache_hit" if cached else "executed")
                self._m_points.labels(status=label).inc()
                if cached:
                    self.stats.cache_hits += 1
                if progress is not None:
                    try:
                        progress(done, len(points), points[i], cached)
                    except Exception:
                        self.stats.progress_errors += 1
                        self._m_progress_errors.inc()

        todo: list[str] = []
        for key in groups:
            value = self.cache.get(key) if self.cache is not None else None
            if value is not None:
                resolve(key, value, cached=True)
            else:
                todo.append(key)

        start = time.perf_counter()
        if todo:
            self._drive(points, groups, todo, resolve,
                        timeout_s=timeout_s, retries=retries)
        elapsed = time.perf_counter() - start
        self.stats.executed += len(todo)
        self.stats.execute_seconds += elapsed
        self._m_seconds.inc(elapsed)
        if self.trace_dir is not None:
            self._capture_traces(groups, results)
        return results

    def _capture_traces(self, groups: dict, results: list) -> None:
        """Export each traced measurement's spans into ``trace_dir``."""
        written = 0
        for key, positions in groups.items():
            value = results[positions[0]]
            tracer = getattr(value, "trace", None)
            if tracer is None:
                continue
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            path = self.trace_dir / f"{key[:16]}.trace.json"
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            blob = json.dumps(tracer.to_payload(), separators=(",", ":"))
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            tmp.replace(path)
            written += 1
        if written:
            sweep_stale_tmp(self.trace_dir)
            self.stats.traces_captured += written
            self._m_traces.inc(written)

    def _drive(self, points, groups, todo, resolve, *,
               timeout_s: float | None, retries: int) -> None:
        """Execute the batch's cache misses, resolving each key once.

        The one step a backend varies: inline for ``workers <= 1``,
        otherwise every miss goes through the process pool (so the
        watchdog and crash isolation cover a lone point too).
        """
        if self.workers >= 2:
            _PoolDriver(self, points, groups, todo, resolve,
                        timeout_s=timeout_s, retries=retries).run()
        else:
            self._run_inline(points, groups, todo, resolve, retries)

    def _run_inline(self, points, groups, todo, resolve, retries) -> None:
        for key in todo:
            point = points[groups[key][0]]
            attempt = 0
            while True:
                try:
                    value = point.execute()
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    attempt += 1
                    if attempt <= retries:
                        self._count_retry(key, attempt)
                        continue
                    self._terminal(key, point, repr(exc), resolve, exc)
                    break
                self._store(key, value)
                resolve(key, value, cached=False)
                break

    # -- failure plumbing (shared by every backend) ------------------------
    def _backoff(self, key: str, attempt: int) -> float:
        jitter = 1.0 + random.Random(f"{key}:{attempt}").random()
        return min(self.max_backoff_s,
                   self.backoff_s * (2 ** (attempt - 1)) * jitter)

    def _count_retry(self, key: str, attempt: int) -> None:
        self.stats.retries += 1
        self._m_retries.inc()
        time.sleep(self._backoff(key, attempt))

    def _terminal(self, key, point, error: str, resolve,
                  cause: BaseException | None) -> None:
        """Apply the failure policy to a point that exhausted its retries.

        ``error`` describes the cause (``repr`` of the exception, or the
        text a fabric worker reported); it is the quarantine record's
        ``error`` and the parenthesized tail of the raised message.
        """
        if self.failure_policy == "quarantine":
            self.stats.quarantined += 1
            self._m_quarantined.inc()
            self.quarantined.append({
                "key": key,
                "point": point.describe(),
                "error": error,
            })
            resolve(key, None, cached=False, status="quarantined")
            return
        raise RunnerError(
            f"point failed: {point.describe()} ({error})") from cause

    def _store(self, key: str, value) -> None:
        if self.cache is not None:
            self.cache.put(key, value)

    # -- reporting ---------------------------------------------------------
    def meta(self) -> dict:
        """Runner accounting for the run journal and the service job record."""
        out = {"workers": self.workers, **self.stats.as_dict()}
        if self.quarantined:
            out["quarantined_points"] = [dict(q) for q in self.quarantined]
        if self.cache is not None:
            out["cache"] = self.cache.snapshot()
        return out


class _PoolDriver:
    """One batch's process-pool state machine (crash/timeout recovery).

    In-flight futures are capped at the worker count so a submitted
    future is actually *running* — that makes the watchdog clock honest
    and lets a broken pool's victim set be exactly the in-flight keys.
    After a pool break the victims replay one at a time (``isolate``):
    only a key that fails alone is charged an attempt.
    """

    def __init__(self, runner: Runner, points, groups, todo, resolve, *,
                 timeout_s: float | None, retries: int) -> None:
        self.r = runner
        self.points = points
        self.groups = groups
        self.resolve = resolve
        # Batch-scoped budgets (run()'s overrides, else the configured
        # defaults) — read from here, not from the shared runner.
        self.timeout_s = timeout_s
        self.retries = retries
        self.queue: deque[str] = deque(todo)
        self.isolate: deque[str] = deque()
        self.attempts: dict[str, int] = {key: 0 for key in todo}
        self.workers = min(runner.workers, max(1, len(todo)))
        self.pool: ProcessPoolExecutor | None = None
        self.inflight: dict = {}
        self.started: dict = {}

    def point(self, key: str):
        return self.points[self.groups[key][0]]

    def run(self) -> None:
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            while self.queue or self.isolate or self.inflight:
                self._fill()
                self._reap()
        except KeyboardInterrupt:
            # Graceful drain: nothing new starts, workers die now, the
            # batch's partial results stay merged.
            self._kill_pool()
            raise
        finally:
            if self.pool is not None:
                if self.inflight:
                    self._kill_pool()
                else:
                    self.pool.shutdown(wait=True)
                    self.pool = None

    # -- submission --------------------------------------------------------
    def _fill(self) -> None:
        if self.pool is None:
            self._respawn()
        cap = 1 if self.isolate else self.workers
        source = self.isolate if self.isolate else self.queue
        while source and len(self.inflight) < cap:
            key = source.popleft()
            fut = self.pool.submit(_execute, self.point(key))
            self.inflight[fut] = key
            self.started[fut] = time.perf_counter()

    # -- completion --------------------------------------------------------
    def _reap(self) -> None:
        if not self.inflight:
            return
        timeout = None
        if self.timeout_s is not None:
            now = time.perf_counter()
            deadline = min(self.started[f] for f in self.inflight) + self.timeout_s
            timeout = max(0.02, deadline - now)
        finished, _ = wait(set(self.inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)
        broken_exc = None
        for fut in finished:
            exc = self._exception(fut)
            if isinstance(exc, BrokenExecutor):
                broken_exc = exc
        if broken_exc is not None:
            self._handle_broken(broken_exc)
            return
        for fut in finished:
            if fut not in self.inflight:
                continue
            key = self.inflight.pop(fut)
            self.started.pop(fut, None)
            exc = self._exception(fut)
            if exc is None:
                value = fut.result()
                self.r._store(key, value)
                self.resolve(key, value, cached=False)
            else:
                self._failure(key, exc, solo_retry=False)
        if not finished and self.timeout_s is not None:
            self._handle_timeouts()

    @staticmethod
    def _exception(fut):
        try:
            return fut.exception()
        except CancelledError:
            return None

    # -- failure modes -----------------------------------------------------
    def _handle_broken(self, exc: BaseException) -> None:
        """A worker died; every in-flight future failed, culprit unknown."""
        victims = list(self.inflight.values())
        self.inflight.clear()
        self.started.clear()
        self._kill_pool()
        self._respawn()
        if len(victims) == 1:
            # Alone in the pool (or already an isolation probe): guilty.
            self._failure(victims[0], exc, solo_retry=True)
        else:
            # Replay one at a time; only a solo crasher gets charged.
            self.isolate.extend(victims)

    def _handle_timeouts(self) -> None:
        now = time.perf_counter()
        victims = [f for f in self.inflight
                   if now - self.started[f] > self.timeout_s]
        if not victims:
            return
        victim_keys = [self.inflight[f] for f in victims]
        innocent_keys = [k for f, k in self.inflight.items()
                         if f not in victims]
        self.inflight.clear()
        self.started.clear()
        # Running futures cannot be cancelled — terminate the workers.
        self._kill_pool()
        self._respawn()
        # Innocents go back to the front of the line, uncharged.
        for key in reversed(innocent_keys):
            self.queue.appendleft(key)
        for key in victim_keys:
            self.r.stats.timeouts += 1
            self.r._m_timeouts.inc()
            self._failure(
                key,
                TimeoutError(
                    f"point exceeded timeout_s={self.timeout_s:g}"
                ),
                solo_retry=True,
            )

    def _failure(self, key: str, exc: BaseException, solo_retry: bool) -> None:
        self.attempts[key] += 1
        attempt = self.attempts[key]
        if attempt <= self.retries:
            self.r._count_retry(key, attempt)
            # Crashers/timeouts damaged the pool — retry them solo so a
            # repeat offence cannot take innocents down with it.
            (self.isolate if solo_retry else self.queue).append(key)
            return
        self.r._terminal(key, self.point(key), repr(exc), self.resolve, exc)

    # -- pool lifecycle ----------------------------------------------------
    def _respawn(self) -> None:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self.workers)
            self.r.stats.pool_respawns += 1
            self.r._m_respawns.inc()

    def _kill_pool(self) -> None:
        pool, self.pool = self.pool, None
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values() or []):
            try:
                proc.terminate()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)
