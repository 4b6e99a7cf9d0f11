"""One HTTP transport + error-envelope layer for every client and server.

The service client and the fabric's worker protocol speak the same
dialect — JSON bodies, bearer tokens, one ``{"error": {"code",
"message"}}`` envelope — so the plumbing lives here exactly once:

* :class:`HttpTransport` — stdlib ``urllib`` with connection-level
  retry/backoff (an HTTP *response*, any status, is never retried;
  connection failures are retried only for **idempotent** requests —
  GETs, plus POSTs the caller explicitly marks replay-safe).  Retry
  sleeps are exponential, capped at ``max_backoff_s`` and
  deterministically jittered so a worker fleet doesn't hammer a
  recovering server in lock-step;
* :class:`InProcessTransport` — direct calls into a pure app's
  ``handle(method, path, headers, body)``, no sockets, which is how
  the test suites exercise full APIs without network access;
* :func:`serve_app` / :func:`serve_app_in_thread` — the server half:
  wrap any such pure app in a stdlib ``ThreadingHTTPServer``.

The transfer primitive is :meth:`Transport.exchange`, returning
``(status, response headers, body bytes)`` — headers carry
``Retry-After`` from overloaded/degraded servers through to
:attr:`ApiError.retry_after`; :meth:`~Transport.json` and
:meth:`~Transport.bytes` decode it.  :class:`HttpTransport`'s
idempotent retry is the one request-level retry layer: a caller that
wants to wait out a sick server honors ``retry_after`` itself.

Error hierarchy (single and typed, replacing ad-hoc ``RuntimeError``
and bare ``URLError`` leakage)::

    ServiceError              any client-side service/fabric failure
    ├── ApiError              the server answered with a non-2xx
    │                         envelope (carries status/code/message
    │                         and an optional retry_after hint)
    └── TransportError        the request never produced a response
                              (connection refused, timeout, DNS...)

Catching :class:`ServiceError` therefore covers everything a remote
call can throw.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.obs.context import CONTEXT_HEADER, context_header

__all__ = [
    "ApiError",
    "HttpTransport",
    "InProcessTransport",
    "ServiceError",
    "Transport",
    "TransportError",
    "is_loopback",
    "serve_app",
    "serve_app_in_thread",
]


def is_loopback(host: str) -> bool:
    """Whether binding ``host`` is reachable from this machine only.

    ``""`` and ``"0.0.0.0"``/``"::"`` (all interfaces) are *not*
    loopback; callers exposing a trust-sensitive endpoint use this to
    decide whether to demand authentication.
    """
    return host in ("localhost", "::1") or host.startswith("127.")


class ServiceError(RuntimeError):
    """Base of every failure a service/fabric client call can raise."""


class ApiError(ServiceError):
    """A non-2xx API response, decoded from the error envelope.

    ``retry_after`` (seconds, or ``None``) is the server's advice from
    a ``Retry-After`` header or a ``retry_after`` envelope field —
    overloaded (503) and quota-limited (429) responses carry it.
    """

    def __init__(self, status: int, code: str, message: str,
                 retry_after: float | None = None) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after


class TransportError(ServiceError):
    """The request never produced an HTTP response."""

    def __init__(self, message: str,
                 cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.cause = cause


def _parse_retry_after(value) -> float | None:
    """A ``Retry-After`` delay in seconds, or ``None`` when unusable.

    Only delta-seconds are supported (the only form this codebase
    emits); HTTP-date forms are ignored rather than misparsed.
    """
    if value is None:
        return None
    try:
        delay = float(value)
    except (TypeError, ValueError):
        return None
    return delay if delay >= 0 else None


class Transport:
    """Request plumbing shared by every client; subclasses move bytes."""

    def __init__(self, token: str | None = None) -> None:
        self.token = token

    def headers(self) -> dict:
        """Standard request headers (JSON + optional bearer token).

        When a correlation context is bound (:func:`repro.obs.bind`)
        it rides along as ``X-Repro-Context`` — the one seam through
        which ``job_id``/``request_id`` correlation crosses every HTTP
        hop, since all clients build their headers here.
        """
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        context = context_header()
        if context is not None:
            headers[CONTEXT_HEADER] = context
        return headers

    def exchange(self, method: str, path: str,
                 payload: dict | None = None, *,
                 idempotent: bool | None = None) -> tuple[int, dict, bytes]:
        """One request; returns ``(status, response headers, body)`` or
        raises :class:`TransportError`.  Header keys are lowercased.

        ``idempotent`` asserts the request is safe to replay after a
        connection-level failure (default: GETs only).  Transports
        without a retry loop ignore it.
        """
        raise NotImplementedError

    # -- decoded conveniences ----------------------------------------------
    def json(self, method: str, path: str,
             payload: dict | None = None, *,
             idempotent: bool | None = None) -> dict:
        """Request + JSON decode; non-2xx raises :class:`ApiError`."""
        status, headers, data = self.exchange(method, path, payload,
                                              idempotent=idempotent)
        try:
            doc = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            doc = {}
        if status >= 400:
            raise self.error(status, data, doc, headers)
        return doc if isinstance(doc, dict) else {}

    def bytes(self, method: str, path: str,
              payload: dict | None = None, *,
              idempotent: bool | None = None) -> bytes:
        """Request returning the raw body; non-2xx raises
        :class:`ApiError` (envelope decoded when present)."""
        status, headers, data = self.exchange(method, path, payload,
                                              idempotent=idempotent)
        if status >= 400:
            try:
                doc = json.loads(data.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                doc = {}
            raise self.error(status, data, doc, headers)
        return data

    @staticmethod
    def error(status: int, data: bytes, doc,
              headers: dict | None = None) -> ApiError:
        """Build the :class:`ApiError` for one non-2xx response."""
        envelope = doc.get("error", {}) if isinstance(doc, dict) else {}
        retry_after = _parse_retry_after(envelope.get("retry_after"))
        if retry_after is None:
            retry_after = _parse_retry_after(
                (headers or {}).get("retry-after"))
        return ApiError(status, envelope.get("code", "error"),
                        envelope.get("message",
                                     data[:200].decode("utf-8", "replace")),
                        retry_after=retry_after)


class HttpTransport(Transport):
    """Real HTTP over stdlib ``urllib`` with connection-level retry.

    An HTTP response, whatever the status, is returned/raised as-is
    and never retried.  A request that produced *no response*
    (connection refused, timeout, reset) is retried only when it is
    **idempotent**: a dropped connection cannot prove the server did
    not accept and execute the request before the failure, so blindly
    replaying a non-idempotent POST can double-apply it (e.g. create
    a duplicate job).  GETs retry by default; a POST retries only when
    the caller passes ``idempotent=True``, asserting the route is
    replay-safe by design (the fabric worker protocol qualifies: a
    replayed lease grant expires and requeues, a replayed completion
    or stale failure report is a journaled no-op).  Everything else
    surfaces the failure as :class:`TransportError` for the caller to
    reconcile.

    Retry sleeps are ``backoff_s * 2**attempt`` **capped at
    ``max_backoff_s``** and jittered into ``[50%, 100%]`` of that by a
    per-transport RNG, so a fleet of workers retrying against one
    recovering coordinator desynchronizes instead of dog-piling.  The
    RNG seeds from ``jitter_seed`` when given (tests replay the exact
    sleep sequence) and from the url+pid otherwise — deterministic per
    process, distinct across a fleet.
    """

    def __init__(self, url: str, token: str | None = None,
                 timeout_s: float = 30.0, retries: int = 2,
                 backoff_s: float = 0.1, max_backoff_s: float = 2.0,
                 jitter_seed: int | None = None) -> None:
        super().__init__(token=token)
        self.url = url.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self._rng = random.Random(
            jitter_seed if jitter_seed is not None
            else f"{self.url}:{os.getpid()}")

    def _sleep_s(self, attempt: int) -> float:
        """The (capped, jittered) sleep before retry ``attempt + 1``."""
        base = min(self.backoff_s * (2 ** attempt), self.max_backoff_s)
        return base * (0.5 + 0.5 * self._rng.random())

    def exchange(self, method: str, path: str,
                 payload: dict | None = None, *,
                 idempotent: bool | None = None) -> tuple[int, dict, bytes]:
        if idempotent is None:
            idempotent = method.upper() == "GET"
        retries = self.retries if idempotent else 0
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        last: BaseException | None = None
        for attempt in range(retries + 1):
            request = urllib.request.Request(
                self.url + path, data=body, method=method,
                headers=self.headers())
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout_s) as response:
                    return (response.status,
                            {k.lower(): v
                             for k, v in response.headers.items()},
                            response.read())
            except urllib.error.HTTPError as err:
                # An HTTP response *is* an answer; never retried.
                return (err.code,
                        {k.lower(): v
                         for k, v in (err.headers or {}).items()},
                        err.read())
            except (urllib.error.URLError, OSError, TimeoutError) as err:
                last = err
                if attempt < retries:
                    time.sleep(self._sleep_s(attempt))
        raise TransportError(
            f"cannot reach {self.url}{path} "
            f"after {retries + 1} attempt(s): {last}", cause=last)


class InProcessTransport(Transport):
    """Direct dispatch into a pure app — no sockets, same semantics."""

    def __init__(self, app, token: str | None = None) -> None:
        super().__init__(token=token)
        self.app = app

    def exchange(self, method: str, path: str,
                 payload: dict | None = None, *,
                 idempotent: bool | None = None) -> tuple[int, dict, bytes]:
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        response = self.app.handle(method, path, self.headers(), body)
        status, _ctype, data, extra = _unpack_response(response)
        if not isinstance(data, bytes):
            # Streaming payloads collapse to one body in-process: the
            # caller sees the same bytes an HTTP client would read off
            # the fully consumed stream.
            data = b"".join(data)
        return status, extra, data


def _unpack_response(response) -> tuple[int, str, object, dict]:
    """Normalize a pure app's 3- or 4-tuple ``handle`` return.

    Apps return ``(status, content_type, payload)`` normally and
    ``(status, content_type, payload, headers)`` for responses that
    carry extra headers (e.g. ``Retry-After``).  ``payload`` is bytes
    for ordinary responses, or an *iterable of bytes chunks* for
    streaming ones (SSE) — the socket layer writes chunks as they
    come, the in-process transport joins them.  Header keys come back
    lowercased.
    """
    if len(response) == 4:
        status, ctype, data, extra = response
        headers = {str(k).lower(): str(v)
                   for k, v in (extra or {}).items()}
        return status, ctype, data, headers
    status, ctype, data = response
    return status, ctype, data, {}


# -- the server half -------------------------------------------------------

class _AppHandler(BaseHTTPRequestHandler):
    """Thin adapter from the socket layer onto a pure app ``handle``."""

    handle_fn: Callable  # set by serve_app()
    protocol_version = "HTTP/1.1"

    def _serve(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        response = type(self).handle_fn(
            method, self.path, dict(self.headers.items()), body)
        status, ctype, payload, extra = _unpack_response(response)
        if isinstance(payload, bytes):
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(payload)))
            for name, value in extra.items():
                self.send_header(name, value)
            try:
                self.end_headers()  # the first write to the socket
                self.wfile.write(payload)
            except (BrokenPipeError, ConnectionResetError):
                # The client hung up while its request was held open
                # (e.g. a worker died mid long-poll): its lease is the
                # queue's business, the dead socket only needs closing.
                self.close_connection = True
            return
        self._stream(status, ctype, payload, extra)

    def _stream(self, status: int, ctype: str, chunks, extra: dict) -> None:
        """Write an incremental payload (SSE): no Content-Length, each
        chunk flushed as it is produced, connection closed at the end
        so the client sees EOF as end-of-stream."""
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        for name, value in extra.items():
            if name.lower() not in ("content-length", "connection"):
                self.send_header(name, value)
        self.end_headers()
        self.close_connection = True
        try:
            for chunk in chunks:
                if chunk:
                    self.wfile.write(chunk)
                    self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # the follower hung up; nothing to salvage
        finally:
            close = getattr(chunks, "close", None)
            if close is not None:
                close()

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._serve("POST")

    def log_message(self, fmt: str, *args) -> None:
        # Request accounting belongs in the app's metrics, not stderr.
        pass


def serve_app(handle: Callable, host: str = "127.0.0.1",
              port: int = 0) -> ThreadingHTTPServer:
    """Bind a ``ThreadingHTTPServer`` around a pure app ``handle``.

    ``handle`` is ``(method, path, headers, body) -> (status,
    content_type, payload bytes)``, optionally with a fourth
    extra-headers dict element.  Returns the bound (not yet serving)
    server; ``server.server_address`` carries the ephemeral port when
    ``port=0``.  The caller owns ``serve_forever()`` / ``shutdown()``
    / ``server_close()``.
    """
    handler = type("BoundAppHandler", (_AppHandler,),
                   {"handle_fn": staticmethod(handle)})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve_app_in_thread(handle: Callable, host: str = "127.0.0.1",
                        port: int = 0) -> tuple[ThreadingHTTPServer,
                                                threading.Thread, str]:
    """:func:`serve_app` + a daemon serving thread; returns
    ``(server, thread, url)``."""
    server = serve_app(handle, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1},
        name="repro-app-server", daemon=True)
    thread.start()
    bound_host, bound_port = server.server_address[0], server.server_address[1]
    return server, thread, f"http://{bound_host}:{bound_port}"
