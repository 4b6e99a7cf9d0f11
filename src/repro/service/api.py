"""REST API layer: pure request dispatch + stdlib HTTP server.

The API is split so it is testable without sockets:

* :class:`ServiceApp` — a pure function of ``(method, path, headers,
  body) -> (status, content_type, payload bytes)``.  Every route,
  auth check and error envelope lives here;
* :class:`Service` — composition root: config + queue + scheduler +
  cache + telemetry registry, with ``start()``/``stop()`` lifecycle
  (recovery of a crashed predecessor's leases happens in ``start()``);
* :func:`serve` — wraps the app in a stdlib
  ``http.server.ThreadingHTTPServer``; zero dependencies beyond the
  standard library.

Routes (all JSON unless noted)::

    GET  /v1/healthz           liveness (unauthenticated)
    GET  /v1/metrics           Prometheus text exposition (unauth)
    GET  /v1/experiments       the ExperimentSpec registry
    POST /v1/jobs              submit {"experiment", "variant"} or
                               {"points": [...]}; 201 + job doc
    GET  /v1/jobs[?state=]     list job docs
    GET  /v1/jobs/{id}         one job doc
    GET  /v1/jobs/{id}/result  the result envelope (exact stored bytes)
    GET  /v1/jobs/{id}/events  live job stream: SSE by default,
                               ``?poll=1&since=&timeout=`` long-poll
    POST /v1/jobs/{id}/cancel  cancel a SUBMITTED job
    GET  /v1/events            flight-recorder ring (``?since=&limit=``)
    GET  /v1/fabric/...        read-only delegation to the fabric
                               coordinator (``--backend fabric`` only)

Errors use one envelope: ``{"error": {"code", "message"}}`` with the
matching HTTP status (400 bad spec, 401 auth, 404 unknown, 409 wrong
state, 429 quota, 503 overloaded/degraded).  429 and 503 carry a
``Retry-After`` header plus a ``retry_after`` envelope field.
"""

from __future__ import annotations

import json
import threading
import time
from urllib.parse import parse_qs, urlparse

from repro.fabric.health import Health
from repro.fabric.transport import serve_app
from repro.obs import (CONTEXT_HEADER, bind as obs_bind, decode_context,
                       emit as obs_emit, new_request_id)
from repro.runner import ResultCache
from repro.runner.cache import SNAPSHOT_STAT_FIELDS
from repro.service.config import AuthError, QuotaError, ServiceConfig, TokenAuth
from repro.service.jobs import TERMINAL_STATES, JobState, SpecError, parse_spec
from repro.service.queue import JobQueue, QueueError, QueueWriteError
from repro.service.scheduler import Scheduler
from repro.telemetry.metrics import MetricRegistry

__all__ = ["Service", "ServiceApp", "serve", "serve_in_thread"]

_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"


class Service:
    """Composition root for one running simulation service."""

    def __init__(self, config: ServiceConfig | None = None,
                 fs=None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.registry = MetricRegistry(clock=time.time)
        self.health = Health(registry=self.registry, component="service")
        self.cache = ResultCache(directory=self.config.cache_dir, fs=fs,
                                 registry=self.registry, health=self.health)
        self.queue = JobQueue(self.config.state_dir, registry=self.registry,
                              max_recoveries=3, fs=fs, health=self.health)
        #: The distributed execution backend (``--backend fabric``):
        #: one in-process coordinator plus ``fabric_workers`` pulled
        #: ``repro worker`` subprocesses, all sharing this service's
        #: ResultCache — job-level semantics and result bytes are
        #: identical to the local backend.
        self.fabric = None
        if self.config.backend == "fabric":
            from repro.fabric.runner import FabricRunner

            self.fabric = FabricRunner(
                workers=self.config.fabric_workers, cache=self.cache,
                registry=self.registry,
                retries=self.config.point_retries,
                state_dir=self.config.fabric_dir, fs=fs)
        elif self.config.backend != "local":
            raise ValueError(
                f"unknown backend {self.config.backend!r}; "
                f"expected 'local' or 'fabric'")
        self.scheduler = Scheduler(
            self.queue, results_dir=self.config.results_dir,
            cache=self.cache, registry=self.registry,
            workers=self.config.workers,
            point_retries=self.config.point_retries,
            backend=self.fabric)
        self.auth = TokenAuth.load(self.config.tokens_path,
                                   default_quota=self.config.max_active_jobs)
        self.app = ServiceApp(self)
        self.started_at = time.time()

    def start(self) -> list:
        """Recover leases a dead predecessor left, then start workers.

        Returns the jobs recovery touched (requeued or quarantined) so
        the caller can log them.
        """
        recovered = self.queue.recover()
        self.scheduler.start()
        return recovered

    def stop(self, drain: bool = False) -> None:
        """Stop the worker pool (queue state stays on disk).

        ``drain=True`` additionally flips :attr:`health` to its
        terminal ``draining`` state — final shutdown, as opposed to a
        pause/restart cycle (tests stop and start schedulers freely).
        """
        if drain:
            self.health.drain()
        self.scheduler.stop()
        if drain and self.fabric is not None:
            # Final shutdown reaps the worker subprocesses; a plain
            # pause (tests stop/start schedulers) leaves the fleet up.
            self.fabric.close()


class ServiceApp:
    """Pure HTTP-shaped dispatch over a :class:`Service`."""

    def __init__(self, service: Service) -> None:
        self.service = service
        self._m_requests = service.registry.counter(
            "service_requests_total", "API requests served",
            labelnames=("route", "code"))

    # -- plumbing ----------------------------------------------------------
    @staticmethod
    def _json(status: int, payload, headers: dict | None = None):
        body = json.dumps(payload, indent=1).encode("utf-8")
        if headers:
            return status, _JSON, body, headers
        return status, _JSON, body

    def _error(self, status: int, code: str, message: str,
               retry_after: float | None = None):
        """The single error envelope every failure path goes through.

        ``retry_after`` (429 quota, 503 overload/degraded) is emitted
        three ways on purpose: as the standard ``Retry-After`` header
        for generic HTTP clients, inside the envelope so in-process
        transports and logged bodies carry the same hint, and as a
        ``retry_after_hint`` obs event so operators watching the stream
        see backpressure the moment it starts.
        """
        envelope: dict = {"code": code, "message": message}
        headers = None
        if retry_after is not None:
            envelope["retry_after"] = retry_after
            headers = {"Retry-After": f"{retry_after:g}"}
            obs_emit("retry_after_hint", level="warn", status=status,
                     code=code, retry_after_s=retry_after)
        return self._json(status, {"error": envelope}, headers)

    def handle(self, method: str, path: str, headers: dict | None = None,
               body: bytes | None = None):
        """Dispatch one request; never raises (500 envelope instead).

        Returns ``(status, content_type, payload)``, extended with a
        fourth extra-headers dict for responses that carry one
        (``Retry-After`` on 429/503).
        """
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        url = urlparse(path)
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        route = "/".join(parts[:3]) or "/"
        # Re-bind the caller's correlation context (one header hop) and
        # mint a request_id at this, the first hop that lacks one —
        # every event emitted below, on any thread this request touches
        # synchronously, carries it.
        ctx = decode_context(headers.get(CONTEXT_HEADER.lower()))
        ctx.setdefault("request_id", new_request_id())
        with obs_bind(**ctx):
            try:
                response = self._dispatch(
                    method.upper(), parts, query, headers, body)
            except QueueWriteError as err:
                # The journal disk is refusing writes: the node is
                # degraded, the transition did not happen — shed the
                # request and tell the client when to come back.
                response = self._error(
                    503, "degraded", str(err),
                    retry_after=self.service.config.retry_after_s)
            except QueueError as err:
                response = self._error(404, "unknown_job", str(err))
            except Exception as err:  # pragma: no cover - defensive
                response = self._error(
                    500, "internal", f"{type(err).__name__}: {err}")
            self._m_requests.labels(route=route,
                                    code=str(response[0])).inc()
            obs_emit("http_request", level="debug", method=method.upper(),
                     route=route, code=response[0])
            return response

    def _tenant(self, headers: dict) -> str:
        return self.service.auth.authenticate(headers.get("authorization"))

    # -- routing -----------------------------------------------------------
    def _dispatch(self, method, parts, query, headers, body):
        if len(parts) < 2 or parts[0] != "v1":
            return self._error(404, "unknown_route",
                               "routes live under /v1/")
        head = parts[1]
        if head == "healthz" and method == "GET":
            return self._healthz()
        if head == "metrics" and method == "GET":
            return self._metrics()
        try:
            tenant = self._tenant(headers)
        except AuthError as err:
            return self._error(401, "unauthorized", str(err))
        if head == "experiments" and method == "GET":
            return self._experiments()
        if head == "events" and len(parts) == 2 and method == "GET":
            return self._events(query)
        if head == "fabric" and method == "GET":
            return self._fabric(method, parts, headers, body)
        if head == "jobs":
            if len(parts) == 2:
                if method == "POST":
                    return self._submit(tenant, body)
                if method == "GET":
                    return self._jobs(query)
            elif len(parts) == 3 and method == "GET":
                return self._job(parts[2])
            elif len(parts) == 4 and parts[3] == "result" and method == "GET":
                return self._result(parts[2])
            elif len(parts) == 4 and parts[3] == "events" and method == "GET":
                return self._job_events(parts[2], query, headers)
            elif len(parts) == 4 and parts[3] == "cancel" and method == "POST":
                return self._cancel(parts[2])
        return self._error(404, "unknown_route",
                           f"no route {method} /{'/'.join(parts)}")

    # -- handlers ----------------------------------------------------------
    def _healthz(self):
        from repro import package_version

        service = self.service
        state = service.health.state
        return self._json(200, {
            # "ok" (not "healthy") for liveness-probe compatibility;
            # degraded/draining pass through so operators see them.
            "status": {Health.HEALTHY: "ok"}.get(state, state),
            "health": service.health.as_dict(),
            "version": package_version(),
            "uptime_s": round(time.time() - service.started_at, 3),
            "queue_depth": service.queue.depth(),
            "workers": service.scheduler.workers,
        })

    def _metrics(self):
        from repro.telemetry import to_prometheus

        service = self.service
        # One code path with `repro cache stats`: the cache snapshot
        # feeds both the CLI and these gauges, and SNAPSHOT_STAT_FIELDS
        # pins the shared schema.
        snap = service.cache.snapshot()
        gauges = service.registry.gauge(
            "service_cache", "result-cache state from ResultCache.snapshot",
            labelnames=("field",))
        for fieldname in SNAPSHOT_STAT_FIELDS:
            gauges.labels(field=fieldname).set(float(snap[fieldname]))
        text = to_prometheus(service.registry)
        return 200, _PROM, text.encode("utf-8")

    def _experiments(self):
        from repro.bench.registry import REGISTRY

        return self._json(200, {
            "experiments": [spec.to_api() for spec in REGISTRY.values()],
        })

    def _submit(self, tenant: str, body: bytes | None):
        try:
            payload = json.loads((body or b"{}").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            return self._error(400, "bad_json", f"request body: {err}")
        try:
            spec = parse_spec(payload)
        except SpecError as err:
            return self._error(400, "bad_spec", str(err))
        priority = payload.get("priority", 0)
        if not isinstance(priority, int):
            return self._error(400, "bad_spec", "priority must be an integer")
        service = self.service
        config = service.config
        # Bounded admission: past the watermark the node is overloaded
        # regardless of whose jobs fill it — shed with 503 (a *node*
        # condition, distinct from the per-tenant 429 quota below).
        depth = service.queue.depth()
        if depth >= config.max_queue_depth:
            return self._error(
                503, "overloaded",
                f"queue depth {depth} at watermark "
                f"{config.max_queue_depth}; retry later",
                retry_after=config.retry_after_s)
        try:
            service.auth.check_quota(tenant,
                                     service.queue.active_count(tenant))
        except QuotaError as err:
            return self._error(429, "quota_exceeded", str(err),
                               retry_after=config.retry_after_s)
        job = service.queue.submit(spec, tenant=tenant, priority=priority)
        return self._json(201, {"job": job.to_dict()})

    def _jobs(self, query: dict):
        state = query.get("state")
        if state is not None and state not in JobState.ALL:
            return self._error(400, "bad_state",
                               f"state must be one of {JobState.ALL}")
        jobs = self.service.queue.jobs(state=state)
        return self._json(200, {"jobs": [j.to_dict() for j in jobs]})

    def _job(self, job_id: str):
        return self._json(200, {"job": self.service.queue.doc(job_id)})

    def _result(self, job_id: str):
        doc = self.service.queue.doc(job_id)
        if doc["state"] != JobState.DONE:
            return self._error(
                409, "not_done",
                f"job {job_id} is {doc['state']}; results exist only for "
                f"DONE jobs")
        try:
            text = open(doc["result_path"], "rb").read()
        except OSError as err:
            return self._error(500, "result_missing",
                               f"stored result unreadable: {err}")
        return 200, _JSON, text

    def _cancel(self, job_id: str):
        try:
            job = self.service.queue.cancel(job_id)
        except QueueError as err:
            if "unknown job" in str(err):
                return self._error(404, "unknown_job", str(err))
            return self._error(409, "not_cancellable", str(err))
        return self._json(200, {"job": job.to_dict()})

    # -- observability routes ----------------------------------------------
    def _events(self, query: dict):
        """The flight recorder's recent-event ring, ``?since=&limit=``."""
        from repro.obs import emitter

        recorder = emitter().recorder
        try:
            since = int(query.get("since", 0))
            limit = max(1, min(int(query.get("limit", 250)), 1000))
        except (TypeError, ValueError):
            return self._error(400, "bad_query",
                               "since and limit must be integers")
        return self._json(200, {
            "events": recorder.since(since, limit=limit),
            "last_seq": recorder.last_seq,
        })

    def _fabric(self, method, parts, headers, body):
        """Read-only delegation to the backend coordinator's app.

        Only GETs pass through (status/healthz for ``repro top`` and
        ``repro fabric status``): the mutating fabric protocol stays on
        the coordinator's own port with its own trust boundary.
        """
        fabric = self.service.fabric
        if fabric is None:
            return self._error(
                404, "no_fabric",
                "this service runs the local backend; start it with "
                "--backend fabric to expose /v1/fabric/ routes")
        return fabric.coordinator.app.handle(
            method, "/" + "/".join(parts), headers, body)

    def _job_events(self, job_id: str, query: dict, headers: dict):
        """Live job watching: SSE stream, or long-poll with ``?poll=1``.

        Long-poll contract: ``since`` is the last job version the
        client saw (start at ``-1``); the response arrives as soon as
        the version moves past it (or after ``timeout`` seconds with
        ``"changed": false``), carrying the full job doc.

        SSE contract: ``state`` events carry the job doc (event id =
        job version, the ``Last-Event-ID`` resume cursor), comment
        keep-alives hold the connection open, and a terminal job sends
        a ``result`` event whose data is the *exact* stored result
        envelope, then ``end``.  Unless the client's cursor is already
        at the terminal version, the last ``state`` event before
        ``end`` is the terminal doc, with the ``end`` event's state.
        """
        queue = self.service.queue
        job = queue.get(job_id)  # 404 via QueueError when unknown
        if query.get("poll"):
            try:
                since = int(query.get("since", -1))
                timeout = min(max(float(query.get("timeout", 10.0)), 0.0),
                              30.0)
            except (TypeError, ValueError):
                return self._error(400, "bad_query",
                                   "since/timeout must be numeric")
            fresh = queue.wait_version(job_id, since, timeout_s=timeout)
            return self._json(200, {"job": queue.doc(job_id),
                                    "changed": fresh is not None})
        try:
            since = int(headers.get("last-event-id",
                                    query.get("since", -1)))
        except (TypeError, ValueError):
            since = -1
        try:
            heartbeat_s = min(max(float(query.get("heartbeat", 5.0)), 0.05),
                              30.0)
        except (TypeError, ValueError):
            heartbeat_s = 5.0
        return 200, "text/event-stream", self._sse_frames(
            job.id, since, heartbeat_s)

    def _sse_frames(self, job_id: str, since: int, heartbeat_s: float):
        """Frame generator behind ``GET /v1/jobs/{id}/events``.

        Runs in the HTTP handler thread as the response streams; a
        dropped client surfaces as a broken pipe in the socket layer,
        which closes this generator.  Each pass reads one doc snapshot
        (:meth:`JobQueue.doc`): the scheduler may finish the job while
        a frame is in flight, and a terminal test on the live job would
        then send ``end`` without the terminal ``state`` frame.
        """
        from repro.obs.sse import format_comment, format_event

        queue = self.service.queue
        seen = since
        sent_retry = False
        while True:
            try:
                doc = queue.doc(job_id)
                if doc["version"] > seen:
                    seen = doc["version"]
                    yield format_event(
                        doc, id=seen, event="state",
                        retry_ms=None if sent_retry else 2000)
                    sent_retry = True
                if doc["state"] in TERMINAL_STATES:
                    if doc["state"] == JobState.DONE and doc["result_path"]:
                        try:
                            text = open(doc["result_path"], "rb").read()
                        except OSError:
                            text = None
                        if text is not None:
                            # The exact envelope bytes: data framing
                            # splits on \n and parsers rejoin with \n,
                            # so the round trip is byte-lossless.
                            yield format_event(text, id=seen,
                                               event="result")
                    yield format_event({"id": job_id, "state": doc["state"]},
                                       id=seen, event="end")
                    return
                if queue.wait_version(job_id, seen,
                                      timeout_s=heartbeat_s) is None:
                    yield format_comment()
            except GeneratorExit:
                raise
            except Exception:
                # A watcher must never crash the handler thread with a
                # half-written frame: close the stream cleanly.
                yield format_event({"id": job_id, "state": "unknown"},
                                   event="end")
                return


def serve(service: Service, ready=None) -> None:
    """Run the blocking HTTP server for an already-started service.

    The socket layer is the shared
    :func:`repro.fabric.transport.serve_app` adapter (the same one the
    fabric coordinator binds), so there is exactly one stdlib HTTP
    server implementation in the tree.

    ``ready`` (optional) is called with the bound ``(host, port)`` once
    the socket is listening — with ``port=0`` this is how the caller
    learns the ephemeral port.  Returns when ``server.shutdown()`` is
    invoked (the handler thread installs it on the service as
    ``service.http_server`` for exactly that purpose).
    """
    server = serve_app(service.app.handle, host=service.config.host,
                       port=service.config.port)
    service.http_server = server
    if ready is not None:
        ready(server.server_address[0], server.server_address[1])
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()


def serve_in_thread(service: Service) -> tuple[threading.Thread, str]:
    """Start :func:`serve` on a daemon thread; returns ``(thread, url)``.

    Test/embedding convenience — production entry points block in
    :func:`serve` directly.
    """
    bound: dict = {}
    event = threading.Event()

    def ready(host: str, port: int) -> None:
        bound["url"] = f"http://{host}:{port}"
        event.set()

    thread = threading.Thread(target=serve, args=(service,),
                              kwargs={"ready": ready}, daemon=True)
    thread.start()
    if not event.wait(timeout=10.0):  # pragma: no cover - bind failure
        raise RuntimeError("HTTP server failed to bind")
    return thread, bound["url"]
