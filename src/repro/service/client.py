"""Service client: one call surface over HTTP or in-process dispatch.

Two transports behind the same methods, both provided by the shared
:mod:`repro.fabric.transport` layer (no HTTP plumbing lives here):

* ``ServiceClient(url=..., token=...)`` —
  :class:`~repro.fabric.transport.HttpTransport` (what ``repro
  submit`` / ``repro jobs`` use), with connection-level retry/backoff;
* ``ServiceClient(app=service.app, token=...)`` —
  :class:`~repro.fabric.transport.InProcessTransport` calling straight
  into :meth:`~repro.service.api.ServiceApp.handle`, no sockets at
  all, which is how the test suite exercises the full API.

Errors are the shared typed hierarchy: a non-2xx response raises
:class:`~repro.fabric.transport.ApiError` (``status`` / ``code`` /
``message`` from the envelope); a request that produced no response
raises :class:`~repro.fabric.transport.TransportError`.  Both derive
from :class:`~repro.fabric.transport.ServiceError`, re-exported here,
so ``except ServiceError`` covers everything a remote call can throw.
"""

from __future__ import annotations

import time

from repro.fabric.transport import (
    ApiError,
    HttpTransport,
    InProcessTransport,
    ServiceError,
    Transport,
    TransportError,
)

__all__ = ["ApiError", "ServiceClient", "ServiceError", "TransportError"]


class _SSEUnavailable(Exception):
    """The server answered the stream request with an error status —
    the follower's cue to fall back to long-polling."""


class ServiceClient:
    """Typed convenience methods over the service's REST routes."""

    def __init__(self, url: str | None = None, token: str | None = None,
                 app=None, timeout_s: float = 30.0) -> None:
        if (url is None) == (app is None):
            raise ValueError("pass exactly one of url= or app=")
        if url is not None:
            self.transport: Transport = HttpTransport(
                url, token=token, timeout_s=timeout_s)
        else:
            self.transport = InProcessTransport(app, token=token)
        self.url = url.rstrip("/") if url is not None else None
        self.app = app
        self.token = token
        self.timeout_s = float(timeout_s)

    # -- routes ------------------------------------------------------------
    def healthz(self) -> dict:
        """``GET /v1/healthz``."""
        return self.transport.json("GET", "/v1/healthz")

    def metrics(self) -> str:
        """``GET /v1/metrics`` (Prometheus text)."""
        return self.transport.bytes("GET", "/v1/metrics").decode("utf-8")

    def experiments(self) -> list[dict]:
        """``GET /v1/experiments``."""
        return self.transport.json("GET", "/v1/experiments")["experiments"]

    def submit(self, experiment: str | None = None, variant: str = "quick",
               points: list[dict] | None = None, priority: int = 0,
               busy_retries: int = 0) -> dict:
        """``POST /v1/jobs``; returns the created job doc.

        ``busy_retries`` re-submits after a 429 (quota) or 503
        (overloaded/degraded) response, sleeping for the server's
        ``Retry-After`` hint between attempts; other errors raise
        immediately as usual.
        """
        if (experiment is None) == (points is None):
            raise ValueError("pass exactly one of experiment= or points=")
        payload: dict = {"priority": priority}
        if experiment is not None:
            payload.update(experiment=experiment, variant=variant)
        else:
            payload["points"] = points
        for attempt in range(int(busy_retries) + 1):
            try:
                return self.transport.json("POST", "/v1/jobs", payload)["job"]
            except ApiError as err:
                if err.status not in (429, 503) or attempt >= busy_retries:
                    raise
                time.sleep(err.retry_after if err.retry_after is not None
                           else 0.5)
        raise AssertionError("unreachable")  # pragma: no cover

    def jobs(self, state: str | None = None) -> list[dict]:
        """``GET /v1/jobs``."""
        suffix = f"?state={state}" if state is not None else ""
        return self.transport.json("GET", f"/v1/jobs{suffix}")["jobs"]

    def job(self, job_id: str) -> dict:
        """``GET /v1/jobs/{id}``."""
        return self.transport.json("GET", f"/v1/jobs/{job_id}")["job"]

    def result_bytes(self, job_id: str) -> bytes:
        """``GET /v1/jobs/{id}/result`` — the exact stored envelope."""
        return self.transport.bytes("GET", f"/v1/jobs/{job_id}/result")

    def result(self, job_id: str) -> dict:
        """The result envelope, JSON-decoded."""
        import json

        return json.loads(self.result_bytes(job_id).decode("utf-8"))

    def cancel(self, job_id: str) -> dict:
        """``POST /v1/jobs/{id}/cancel``."""
        return self.transport.json("POST", f"/v1/jobs/{job_id}/cancel")["job"]

    def events(self, since: int = 0, limit: int = 250) -> dict:
        """``GET /v1/events`` — the server's flight-recorder ring.

        Returns ``{"events": [...], "last_seq": N}``; pass the returned
        ``last_seq`` back as ``since`` to tail incrementally.
        """
        return self.transport.json(
            "GET", f"/v1/events?since={int(since)}&limit={int(limit)}")

    def follow(self, job_id: str, timeout_s: float = 300.0,
               heartbeat_s: float | None = None):
        """Yield job docs as the job progresses, until it is terminal.

        Over HTTP this streams ``GET /v1/jobs/{id}/events`` as SSE
        (reconnecting with ``Last-Event-ID`` if the stream drops) and
        long-polls from the last doc it saw when the server answers the
        stream request with an error status, or when the stream ends
        before a terminal doc.  In-process clients long-poll
        directly — the blocking transport consumes a whole response at
        a time, so streaming buys nothing there.

        The final yielded doc is terminal; :class:`TimeoutError` if the
        job outlives ``timeout_s``.
        """
        from repro.service.jobs import TERMINAL_STATES

        deadline = time.monotonic() + timeout_s
        last: dict = {}
        if self.url is not None:
            try:
                for last in self._follow_sse(job_id, deadline, heartbeat_s):
                    yield last
            except _SSEUnavailable:
                pass  # fall back to long-polling below
            if last.get("state") in TERMINAL_STATES:
                return
        yield from self._follow_poll(job_id, deadline, TERMINAL_STATES,
                                     last.get("version", -1))

    def _follow_sse(self, job_id: str, deadline: float,
                    heartbeat_s: float | None):
        import json
        import urllib.error

        from repro.obs.sse import follow as sse_follow

        url = f"{self.url}/v1/jobs/{job_id}/events"
        if heartbeat_s is not None:
            url += f"?heartbeat={heartbeat_s:g}"
        try:
            stream = sse_follow(url, token=self.token,
                                timeout_s=self.timeout_s)
            for event in stream:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"job {job_id} still running at the follow "
                        f"deadline")
                if event.event == "state":
                    try:
                        yield json.loads(event.data)
                    except (ValueError, TypeError):
                        continue
                elif event.event == "end":
                    return
        except urllib.error.HTTPError as err:
            # A response is an answer: the server exists but will not
            # stream (auth proxy, old version) — long-poll instead.
            raise _SSEUnavailable(str(err)) from err

    def _follow_poll(self, job_id: str, deadline: float, terminal,
                     version: int):
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still running at the follow deadline")
            doc = self.transport.json(
                "GET", f"/v1/jobs/{job_id}/events?poll=1"
                       f"&since={version}&timeout={min(remaining, 10.0):g}")
            job = doc["job"]
            if doc.get("changed"):
                version = int(job.get("version", version))
                yield job
                if job["state"] in terminal:
                    return

    def wait(self, job_id: str, timeout_s: float = 120.0) -> dict:
        """Block until the job reaches a terminal state; returns its doc.

        The doc is the last one :meth:`follow` yields, so the wait ends
        on the job's own terminal transition.  Raises
        :class:`TimeoutError` if the job outlives ``timeout_s``.
        """
        for job in self.follow(job_id, timeout_s=timeout_s):
            pass
        return job
