"""Coordinator side of the fabric: protocol app + drop-in runner.

Three layers, mirroring the service's app/composition split:

* :class:`FabricApp` — pure dispatch ``(method, path, headers, body) ->
  (status, content_type, bytes)`` for the worker protocol, testable
  without sockets through
  :class:`~repro.fabric.transport.InProcessTransport`;
* :class:`FabricCoordinator` — composition root owning the journaled
  :class:`~repro.fabric.queue.PointQueue` (the one owner of an item's
  lease, claims and held value), the shared
  :class:`~repro.runner.cache.ResultCache` and the HTTP server.  Its
  :meth:`~FabricCoordinator.complete` enforces the exactly-once order:
  result bytes land in the cache *before* ``point_done`` is journaled;
* :class:`FabricRunner` — a :class:`~repro.runner.pool.Runner` whose
  cache misses run on N remote pull-workers instead of inline or in a
  process pool.  Everything else (``run``, dedup, cache, the terminal
  ``RunnerError``, ``stats``, ``meta``, ``trace_dir``) is the
  Runner's own batch front-end, so ``repro run --backend fabric``
  targets it transparently, and the service scheduler runs each job's
  misses on its ``_drive``.  Each batch releases its items by id as
  they finish, so a coordinator at rest holds none.

Protocol routes (all JSON)::

    GET  /v1/fabric/healthz    liveness + health state (unauth)
    GET  /v1/fabric/status     queue snapshot + drain flag (unauth)
    POST /v1/fabric/lease      {"worker", "wait_s"?} -> one leased item
                               + its pickled point + the coordinator's
                               "lease_s", or nothing (plus a
                               "shutdown" hint when draining);
                               "wait_s" holds an idle request open
                               until an item turns PENDING, the
                               coordinator drains, or
                               min(wait_s, LEASE_WAIT_CAP_S) passes
    POST /v1/fabric/heartbeat  {"worker", "id"} -> {"ok": bool}
    POST /v1/fabric/complete   {"worker", "id", "result"} -> {"status"}
    POST /v1/fabric/fail       {"worker", "id", "error"} -> {"state"}

A report about an item that has left the queue (finished, and released
by every batch) is answered 404 ``unknown_item`` by ``/complete`` and
``/fail`` and ``{"ok": false}`` by ``/heartbeat``; nothing is journaled
or cached for it.

Determinism contract: the fabric merges results **in input order**
through the local runner's own front-end, so a sweep executed by two
workers (even with one SIGKILLed mid-lease) returns values
bit-identical to the serial run.
"""

from __future__ import annotations

import hmac
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Callable

from repro.fabric.queue import ItemState, PointQueue, PointQueueError
from repro.fabric.transport import is_loopback, serve_app_in_thread
from repro.fabric.worker import decode_payload, encode_payload, worker_id
from repro.obs import (SYSTEM_CLOCK, CONTEXT_HEADER, bind as obs_bind,
                       decode_context, new_request_id)
from repro.runner.cache import ResultCache
from repro.runner.pool import Runner
from repro.runner.simpoint import SimPoint
from repro.telemetry.metrics import MetricRegistry

__all__ = ["FabricApp", "FabricCoordinator", "FabricRunner"]

_JSON = "application/json"

#: Longest one lease request is held open, well inside the 30 s
#: default timeout of the worker's HTTP transport.
LEASE_WAIT_CAP_S = 10.0


class FabricApp:
    """Pure HTTP-shaped dispatch over a :class:`FabricCoordinator`."""

    def __init__(self, coordinator: "FabricCoordinator",
                 token: str | None = None) -> None:
        self.coordinator = coordinator
        self.token = token

    # -- plumbing ----------------------------------------------------------
    @staticmethod
    def _json(status: int, payload) -> tuple[int, str, bytes]:
        return status, _JSON, json.dumps(payload, indent=1).encode("utf-8")

    @classmethod
    def _error(cls, status: int, code: str,
               message: str) -> tuple[int, str, bytes]:
        """The same error envelope the service API uses."""
        return cls._json(status, {"error": {"code": code,
                                            "message": message}})

    def handle(self, method: str, path: str, headers: dict | None = None,
               body: bytes | None = None) -> tuple[int, str, bytes]:
        """Dispatch one request; never raises (500 envelope instead).

        Context propagated by the caller (the worker's
        ``X-Repro-Context`` header) is re-bound around the dispatch, so
        coordinator-side obs events carry the same ``job_id`` /
        ``request_id`` as the hop that caused them.
        """
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        parts = [p for p in path.split("?")[0].split("/") if p]
        ctx = decode_context(headers.get(CONTEXT_HEADER.lower()))
        ctx.setdefault("request_id", new_request_id())
        with obs_bind(**ctx):
            try:
                return self._dispatch(method.upper(), parts, headers, body)
            except PointQueueError as err:
                return self._error(404, "unknown_item", str(err))
            except Exception as err:  # pragma: no cover - defensive
                return self._error(500, "internal",
                                   f"{type(err).__name__}: {err}")

    def _dispatch(self, method, parts, headers, body):
        if len(parts) != 3 or parts[0] != "v1" or parts[1] != "fabric":
            return self._error(404, "unknown_route",
                               "fabric routes live under /v1/fabric/")
        verb = parts[2]
        if verb == "healthz" and method == "GET":
            health = self.coordinator.queue.health
            state = health.state
            return self._json(200, {
                "status": {health.HEALTHY: "ok"}.get(state, state),
                "health": health.as_dict(),
            })
        if verb == "status" and method == "GET":
            return self._json(200, {"fabric": self.coordinator.status()})
        if method != "POST" or verb not in ("lease", "heartbeat",
                                            "complete", "fail"):
            return self._error(404, "unknown_route",
                               f"no route {method} /v1/fabric/{verb}")
        if self.token is not None:
            supplied = headers.get("authorization", "")
            if not hmac.compare_digest(supplied.encode("utf-8"),
                                       f"Bearer {self.token}".encode("utf-8")):
                return self._error(401, "unauthorized",
                                   "missing or invalid bearer token")
        try:
            payload = json.loads((body or b"{}").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            return self._error(400, "bad_json", f"request body: {err}")
        worker = payload.get("worker")
        if not isinstance(worker, str) or not worker:
            return self._error(400, "bad_request",
                               '"worker" (non-empty string) is required')
        if verb == "lease":
            return self._lease(worker, payload)
        item_id = payload.get("id")
        if not isinstance(item_id, str):
            return self._error(400, "bad_request", '"id" is required')
        if verb == "heartbeat":
            ok = self.coordinator.queue.heartbeat(worker, item_id)
            return self._json(200, {"ok": ok})
        if verb == "complete":
            blob = payload.get("result")
            if not isinstance(blob, str):
                return self._error(400, "bad_request",
                                   '"result" (base64 pickle) is required')
            try:
                value = decode_payload(blob, key=self.token)
            except Exception as err:
                return self._error(400, "bad_payload",
                                   f"cannot decode result: {err}")
            status = self.coordinator.complete(worker, item_id, value)
            return self._json(200, {"status": status})
        state = self.coordinator.queue.fail(
            worker, item_id, str(payload.get("error", "worker failure")))
        return self._json(200, {"state": state})

    def _lease(self, worker: str, payload: dict):
        wait_s = payload.get("wait_s", 0.0)
        if (isinstance(wait_s, bool) or not isinstance(wait_s, (int, float))
                or not wait_s >= 0):
            return self._error(400, "bad_request",
                               '"wait_s" must be a number >= 0')
        queue = self.coordinator.queue
        item = queue.lease(worker,
                           wait_s=min(float(wait_s), LEASE_WAIT_CAP_S))
        if item is None:
            return self._json(200, {
                "item": None, "point": None, "shutdown": queue.draining})
        return self._json(200, {
            "item": item.to_dict(),
            "point": encode_payload(queue.point(item.id), key=self.token),
            "lease_s": queue.lease_s,
            "shutdown": False,
        })


class FabricCoordinator:
    """Composition root: point queue + shared cache + HTTP endpoint.

    :meth:`complete` is where the exactly-once ordering lives: the
    decoded result is written to the shared cache (an atomic
    temp-file + rename inside :meth:`ResultCache.put`) *before* the
    queue journals ``point_done`` — a crash between the two replays
    the point onto the same cache key and the sweep still yields one
    result per point.
    """

    def __init__(self, state_dir: str | Path,
                 cache: ResultCache | None = None,
                 registry: MetricRegistry | None = None,
                 lease_s: float = 30.0, retries: int = 1,
                 max_recoveries: int = 3,
                 token: str | None = None, fs=None,
                 clock=SYSTEM_CLOCK) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.clock = clock
        self.queue = PointQueue(state_dir, registry=self.registry,
                                lease_s=lease_s, retries=retries,
                                max_recoveries=max_recoveries, fs=fs,
                                clock=clock.wall)
        self.cache = cache
        self.app = FabricApp(self, token=token)
        self._serve_lock = threading.Lock()
        self._server = None
        self._thread = None
        self.url: str | None = None

    def complete(self, worker: str, item_id: str, value) -> str:
        """Store the result durably, then record the completion.

        First write wins: the whole check-state → cache-put → journal
        sequence runs under the queue lock, and an item that is already
        DONE skips the stores entirely — a duplicate (or never-leased)
        worker's bytes must not replace a result the journal already
        vouches for, even if that worker is buggy or nondeterministic.
        A FAILED item skips them too: a point charged a timeout leaves
        no cached value, as on the local pool.  An item that has left
        the queue raises :class:`~repro.fabric.queue.PointQueueError`
        before anything is stored.  The queue holds the value for the
        batches that claim the item.
        """
        with self.queue.lock:
            item = self.queue.get(item_id)
            if item.state not in ItemState.TERMINAL and self.cache is not None:
                self.cache.put(item.key, value)
            return self.queue.complete(worker, item_id, value)

    def status(self) -> dict:
        """Snapshot for ``/v1/fabric/status``."""
        return {**self.queue.snapshot(), "draining": self.queue.draining,
                "url": self.url}

    # -- HTTP lifecycle ----------------------------------------------------
    def serve(self, host: str = "127.0.0.1", port: int = 0) -> str:
        """Start the endpoint on a daemon thread; returns its URL.

        Refuses to bind a non-loopback host without a token: the
        protocol ships pickled payloads, so an open port would hand
        arbitrary code execution to anyone who can reach it (see the
        trust-boundary notes in :mod:`repro.fabric.worker`).  Even
        loopback-only fabrics on multi-user hosts should set a token —
        it also turns on payload signing.
        """
        if self.app.token is None and not is_loopback(host):
            raise ValueError(
                f"refusing to serve the fabric protocol on non-loopback "
                f"host {host!r} without a token: the protocol exchanges "
                f"pickled payloads (code execution for any process that "
                f"can reach the port); pass token=...")
        with self._serve_lock:
            if self.url is None:
                self._server, self._thread, self.url = serve_app_in_thread(
                    self.app.handle, host=host, port=port)
            return self.url

    def close(self) -> None:
        """Flag draining and tear the HTTP endpoint down."""
        self.queue.drain()
        self.queue.health.drain()
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        self.url = None


class FabricRunner(Runner):
    """The Runner front-end over a fleet of remote pull-workers.

    Only :meth:`_drive` — how the cache misses execute — is the
    fabric's own: it enqueues them on the coordinator's lease queue and
    waits until each is terminal.  Dedup, the cache lookup, input-order
    merge, the terminal :class:`~repro.runner.RunnerError`, ``stats``,
    the ``runner_*`` metrics, ``trace_dir`` capture and :meth:`meta` are
    inherited.

    Parameters
    ----------
    workers:
        Worker processes to spawn (``spawn="process"``/``"thread"``) or
        merely expected (``spawn=None``: the caller starts workers by
        hand, e.g. ``repro worker`` on other hosts).
    cache / registry / progress / retries / timeout_s / trace_dir:
        Exactly the local :class:`~repro.runner.pool.Runner` meanings.
        ``retries`` is enforced by the *coordinator*: a point whose
        worker reports a failure is re-leased up to that many times
        (workers do not retry), while a dead worker's lapsed lease
        charges ``max_recoveries`` instead, as the pool replays crash
        victims uncharged.  ``timeout_s`` is stamped on each item as
        its deadline, which the leasing worker's heartbeat thread
        enforces: a point running past it is reported failed with a
        ``TimeoutError`` and charged like any failure.  Its worker
        stays busy until the point returns, the honest remote analogue
        of the pool watchdog's kill.
    lease_s:
        The length of every lease the coordinator grants or refreshes.
        Workers learn it from the lease response and heartbeat at a
        third of it.
    state_dir:
        Where the fabric lease journal lives
        (default ``bench_results/fabric``).
    spawn:
        ``"process"`` (default) launches ``repro worker`` subprocesses —
        points must be importable in a fresh interpreter;
        ``"thread"`` runs :class:`~repro.fabric.worker.FabricWorker`
        loops on daemon threads of this process (tests, single-host);
        ``None`` spawns nothing and waits for external workers.
    poll_s:
        The longest one idle worker lease waits for work, and the
        period of the batch driver's housekeeping (expired-lease sweep,
        fleet respawn).  Hand-off does not wait for it: workers and the
        driver block on the queue's condition, so a point starts the
        moment it is enqueued and its batch wakes the moment it ends.
    """

    def __init__(self, workers: int = 2,
                 cache: ResultCache | None = None,
                 registry: MetricRegistry | None = None,
                 progress: Callable[[int, int, SimPoint, bool], None] | None = None,
                 retries: int = 0,
                 timeout_s: float | None = None,
                 trace_dir: str | Path | None = None,
                 lease_s: float = 30.0,
                 poll_s: float = 0.05,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 state_dir: str | Path | None = None,
                 token: str | None = None,
                 spawn: str | None = "process",
                 max_recoveries: int = 3,
                 fs=None,
                 wrap_transport: Callable | None = None,
                 clock=SYSTEM_CLOCK) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if spawn not in (None, "process", "thread"):
            raise ValueError("spawn must be 'process', 'thread' or None")
        super().__init__(workers=workers, cache=cache, registry=registry,
                         progress=progress, retries=retries,
                         timeout_s=timeout_s, trace_dir=trace_dir)
        self.poll_s = float(poll_s)
        self.host = host
        self.port = port
        self.token = token
        self.spawn = spawn
        #: Chaos seam: ``wrap_transport(transport, index) -> transport``
        #: decorates each thread-worker's transport (fault injection);
        #: ``fs`` threads the filesystem seam down to the point queue.
        self.wrap_transport = wrap_transport
        #: One clock *pair* for the whole runner: ``clock.wall`` feeds
        #: the lease deadlines (operators reason about lease expiry in
        #: wall time), ``clock.mono`` feeds durations — never mixed,
        #: and both injectable together for deterministic tests.
        self.clock = clock
        state_dir = (Path(state_dir) if state_dir is not None
                     else Path("bench_results") / "fabric")
        self.coordinator = FabricCoordinator(
            state_dir, cache=cache, registry=self.registry,
            lease_s=lease_s, retries=self.retries,
            max_recoveries=max_recoveries, token=token, fs=fs,
            clock=clock)
        self._fleet_lock = threading.Lock()
        self._procs: list[subprocess.Popen] = []
        self._thread_workers: list = []

    # -- worker fleet ------------------------------------------------------
    @property
    def url(self) -> str | None:
        return self.coordinator.url

    def start(self) -> str:
        """Bring the endpoint up and the worker fleet to strength."""
        url = self.coordinator.serve(host=self.host, port=self.port)
        self._ensure_workers()
        return url

    def _worker_argv(self) -> list[str]:
        argv = [sys.executable, "-m", "repro", "worker",
                "--url", self.coordinator.url,
                "--poll-s", str(max(self.poll_s, 0.02))]
        if self.token is not None:
            argv += ["--token", self.token]
        return argv

    def _ensure_workers(self) -> None:
        """Spawn (and respawn) workers up to the configured width.

        Serialized by ``_fleet_lock``: concurrent batches (scheduler
        worker threads sharing one injected backend) call this, and
        unsynchronized checks would overshoot the fleet width.
        """
        if self.spawn is None or self.coordinator.queue.draining:
            return
        with self._fleet_lock:
            self._ensure_workers_locked()

    def _ensure_workers_locked(self) -> None:
        if self.spawn == "thread":
            from repro.fabric.transport import InProcessTransport
            from repro.fabric.worker import FabricClient, FabricWorker

            self._thread_workers = [
                w for w in self._thread_workers if w[1].is_alive()]
            while len(self._thread_workers) < self.workers:
                index = len(self._thread_workers)
                transport = InProcessTransport(self.coordinator.app,
                                               token=self.token)
                if self.wrap_transport is not None:
                    transport = self.wrap_transport(transport, index)
                fabric_worker = FabricWorker(
                    FabricClient(transport),
                    worker=f"thread:{os.getpid()}:{index}",
                    poll_s=self.poll_s)
                thread = threading.Thread(
                    target=fabric_worker.run_forever,
                    name=f"fabric-worker-{index}", daemon=True)
                thread.start()
                self._thread_workers.append((fabric_worker, thread))
            return
        live = []
        for proc in self._procs:
            if proc.poll() is None:
                live.append(proc)
            else:
                self.stats.pool_respawns += 1
                self._m_respawns.inc()
                # A dead worker's lease comes back now, not a lease_s later.
                self.coordinator.queue.reclaim(worker_id(proc.pid))
        self._procs = live
        while len(self._procs) < self.workers:
            self._procs.append(subprocess.Popen(
                self._worker_argv(),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))

    def worker_pids(self) -> list[int]:
        """PIDs of live spawned worker subprocesses."""
        return [p.pid for p in self._procs if p.poll() is None]

    # -- the one step that differs from the local Runner -------------------
    def _drive(self, points, groups, todo, resolve, *,
               timeout_s: float | None, retries: int) -> None:
        """Enqueue the misses and wait until all are terminal.

        Each wait ends when one of this batch's items turns terminal,
        or after ``poll_s``; every wake also sweeps expired leases and
        respawns dead workers (reclaiming their leases).  ``retries``
        and ``timeout_s`` are stamped onto this batch's queue items, so
        they apply wherever the points land, and only to them.  Each
        item is released by id as it resolves.
        """
        self.start()
        queue = self.coordinator.queue
        _batch, ids = queue.enqueue([points[groups[key][0]] for key in todo],
                                    retries=retries, timeout_s=timeout_s)
        pending = dict(zip(ids, todo))
        try:
            while pending:
                for item_id in queue.wait_finished(pending, self.poll_s):
                    key = pending.pop(item_id)
                    item = queue.get(item_id)
                    value = queue.release(item_id)
                    if item.state != ItemState.DONE:
                        raise self._terminal(points[groups[key][0]],
                                             item.error)
                    resolve(key, value, cached=False)
                if pending:
                    queue.requeue_expired()
                    self._ensure_workers()
        finally:
            # An aborted batch (raise policy, interrupt) drops its claims:
            # the points nobody else claims and no worker has started are
            # cancelled, and the rest leave the queue once they finish.
            for item_id in pending:
                queue.release(item_id)

    def meta(self) -> dict:
        """The Runner's metadata, tagged with the backend."""
        return {**super().meta(), "backend": "fabric"}

    def close(self, timeout_s: float = 10.0) -> None:
        """Drain the fleet (shutdown hint), reap it, stop the server."""
        self.coordinator.queue.drain()
        deadline = self.clock.mono() + timeout_s
        for proc in self._procs:
            remaining = max(0.1, deadline - self.clock.mono())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self._procs = []
        for fabric_worker, thread in self._thread_workers:
            fabric_worker.stop()
        for fabric_worker, thread in self._thread_workers:
            thread.join(timeout=max(0.1, deadline - self.clock.mono()))
        self._thread_workers = []
        self.coordinator.close()

    def __enter__(self) -> "FabricRunner":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()
