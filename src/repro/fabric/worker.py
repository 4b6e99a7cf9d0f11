"""The fabric worker: pull → lease → run → report, until drained.

A :class:`FabricWorker` is one executor process (spawnable on any host
that can reach the coordinator's HTTP endpoint).  Its loop:

1. **pull** — ``POST /v1/fabric/lease`` asks for work and, when there
   is none, waits up to ``poll_s`` for some; the coordinator answers
   with one leased item + its pickled point + its ``lease_s`` the
   moment one is enqueued, or nothing (plus a ``shutdown`` hint, at
   once, when the session drains).  An empty answer is followed by the
   next pull straight away: the wait is in the request, not in the
   worker;
2. **run** — the point is decoded and executes directly
   (``point.execute()``); the worker does not retry, so the
   coordinator's per-item retry budget is the only retry layer a
   fabric point has;
3. **heartbeat** — a background thread refreshes the lease at a third
   of the coordinator's ``lease_s`` while the point runs.  When the
   item carries a ``timeout_s`` it wakes at that deadline and reports
   ``TimeoutError`` through ``/v1/fabric/fail``: a charged failure,
   exactly as the pool watchdog charges one.  Inline execution cannot
   be interrupted, so the point runs on; should it finish, its result
   still ships as a late completion.  Lease length and deadline are
   the coordinator's alone: the worker has no setting for either;
4. **report** — success ships the pickled result back
   (``/v1/fabric/complete``); a failure — the point raised, or its
   payload could not be verified or unpickled — reports the real
   exception as its ``repr`` (``/v1/fabric/fail``) and lets the
   coordinator's retry policy decide.  The coordinator names the point
   itself, so a fabric failure reads as it does on the other backends.

Graceful drain: :meth:`FabricWorker.stop` (wired to SIGTERM by ``repro
worker``) lets the in-flight point finish and report before the loop
exits; only SIGKILL abandons a lease, and that is precisely the case
the lease expiry + requeue protocol recovers.

Trust boundary
--------------
Points and results travel as **pickle** — unpickling a payload is
arbitrary code execution, so coordinator and workers must mutually
trust each other.  The protocol enforces that in two layers: the
coordinator refuses to bind a non-loopback host without a bearer
``token``, and whenever a token is configured every payload carries an
HMAC-SHA256 signature keyed by it — :func:`decode_payload` verifies
the signature (constant-time) *before* ``pickle.loads`` touches the
bytes, so an unauthenticated sender cannot reach the deserializer in
either direction.  Run loopback-only fabrics on single-user hosts, or
set a token.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import pickle
import socket
import threading
import time

from repro.fabric.transport import (
    ApiError,
    ServiceError,
    Transport,
    TransportError,
)
from repro.obs import bind as obs_bind, emit as obs_emit
from repro.telemetry.metrics import MetricRegistry

__all__ = ["FabricClient", "FabricWorker", "PayloadError", "decode_payload",
           "encode_payload", "worker_id"]

#: Length of the HMAC-SHA256 signature prefixed to keyed payloads.
_SIG_BYTES = hashlib.sha256().digest_size


class PayloadError(ValueError):
    """A protocol payload failed signature verification or decoding."""


def encode_payload(obj, key: str | None = None) -> str:
    """Pickle + base64 an object for a JSON protocol body.

    With ``key`` set the pickled bytes are prefixed by an HMAC-SHA256
    signature over them, proving the sender holds the shared fabric
    token (pickle is code execution on the receiving side — see the
    module docstring's trust-boundary notes).
    """
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if key is not None:
        raw = hmac.new(key.encode("utf-8"), raw, hashlib.sha256).digest() + raw
    return base64.b64encode(raw).decode("ascii")


def decode_payload(blob: str, key: str | None = None):
    """Inverse of :func:`encode_payload`.

    With ``key`` set the signature is verified (constant-time,
    :func:`hmac.compare_digest`) **before** the bytes reach
    ``pickle.loads``; a missing or wrong signature raises
    :class:`PayloadError` without deserializing anything.
    """
    raw = base64.b64decode(blob.encode("ascii"))
    if key is not None:
        if len(raw) < _SIG_BYTES:
            raise PayloadError("payload too short to carry a signature")
        sig, raw = raw[:_SIG_BYTES], raw[_SIG_BYTES:]
        want = hmac.new(key.encode("utf-8"), raw, hashlib.sha256).digest()
        if not hmac.compare_digest(sig, want):
            raise PayloadError("payload signature mismatch")
    return pickle.loads(raw)


def worker_id() -> str:
    """Default identity: ``host:pid`` (unique across a cluster)."""
    import os
    return f"{socket.gethostname()}:{os.getpid()}"


class FabricClient:
    """Typed client for the fabric worker protocol.

    Speaks through any :class:`~repro.fabric.transport.Transport`
    (HTTP to a remote coordinator, or in-process for tests) — the same
    shared layer :class:`~repro.service.client.ServiceClient` uses.
    The transport's bearer token doubles as the payload-signing key.

    Every protocol route is replay-safe by design (a re-granted lease
    expires and requeues; duplicate completions and stale failure
    reports are journaled no-ops), so the calls opt into the
    transport's connection-level retry with ``idempotent=True``.
    """

    def __init__(self, transport: Transport) -> None:
        self.transport = transport

    @property
    def payload_key(self) -> str | None:
        """HMAC key for point/result payloads (the bearer token)."""
        return self.transport.token

    def status(self) -> dict:
        """Coordinator queue snapshot (``repro fabric status``)."""
        return self.transport.json("GET", "/v1/fabric/status")["fabric"]

    def lease(self, worker: str, wait_s: float | None = None) -> dict:
        """Ask for work, waiting up to ``wait_s`` (capped by the
        coordinator) while there is none.  Returns the response
        document: ``{"item": {...}|None, "point": b64|None,
        "shutdown": bool}``, plus the coordinator's ``"lease_s"``
        when an item was leased."""
        payload = {"worker": worker}
        if wait_s is not None:
            payload["wait_s"] = wait_s
        return self.transport.json("POST", "/v1/fabric/lease", payload,
                                   idempotent=True)

    def heartbeat(self, worker: str, item_id: str) -> bool:
        """Refresh a lease; ``False`` means it is no longer ours."""
        doc = self.transport.json("POST", "/v1/fabric/heartbeat",
                                  {"worker": worker, "id": item_id},
                                  idempotent=True)
        return bool(doc.get("ok"))

    def complete(self, worker: str, item_id: str, value) -> str:
        """Ship a result; returns ``done`` / ``late`` / ``duplicate``."""
        doc = self.transport.json(
            "POST", "/v1/fabric/complete",
            {"worker": worker, "id": item_id,
             "result": encode_payload(value, key=self.payload_key)},
            idempotent=True)
        return str(doc.get("status", "done"))

    def fail(self, worker: str, item_id: str, error: str) -> str:
        """Report a terminal point failure; returns the item's new state."""
        doc = self.transport.json(
            "POST", "/v1/fabric/fail",
            {"worker": worker, "id": item_id, "error": str(error)},
            idempotent=True)
        return str(doc.get("state", ""))


class _Heartbeat:
    """Background lease refresher for one in-flight item.

    Refreshes every ``lease_s / 3`` (the coordinator's ``lease_s``).
    At ``deadline`` seconds (the item's ``timeout_s``) it stops
    refreshing and reports the overrun as the point's failure, charged
    against its retry budget.
    """

    def __init__(self, client: FabricClient, worker: str, item_id: str,
                 lease_s: float, deadline: float | None) -> None:
        self.client = client
        self.worker = worker
        self.item_id = item_id
        self.interval = max(0.05, lease_s / 3.0)
        self.deadline = deadline
        self.lost = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name=f"fabric-heartbeat-{item_id}",
            daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _loop(self) -> None:
        due = (time.monotonic() + self.deadline
               if self.deadline is not None else None)
        while True:
            wait = self.interval
            if due is not None:
                wait = min(wait, max(0.0, due - time.monotonic()))
            if self._stop.wait(wait):
                return
            if due is not None and time.monotonic() >= due:
                self.lost.set()
                error = TimeoutError(
                    f"point exceeded timeout_s={self.deadline:g}")
                try:
                    self.client.fail(self.worker, self.item_id,
                                     repr(error))
                except ServiceError:
                    pass  # unreported, the lease lapses into recovery
                return
            try:
                if not self.client.heartbeat(self.worker, self.item_id):
                    self.lost.set()
                    return
            except ServiceError:
                # Transient coordinator unreachability: keep trying; the
                # lease survives as long as one refresh lands in time.
                continue


class FabricWorker:
    """One pull-loop executor process.

    Parameters
    ----------
    client:
        A :class:`FabricClient` pointed at the coordinator.
    worker:
        Identity reported on every protocol call (default ``host:pid``).
    poll_s:
        The longest one lease request waits for work (sent as its
        ``wait_s``).  The worker never sleeps between pulls: the
        coordinator answers as soon as an item is enqueued, or with the
        shutdown hint as soon as it drains.
    lease_error_limit:
        Consecutive failed pulls tolerated before the coordinator is
        presumed gone and the loop drains.  Transient flaps (a dropped
        packet, a single 503 from a degraded node) ride through; a
        dead coordinator still drains after a short burst.
    registry:
        Optional :class:`~repro.telemetry.MetricRegistry` for
        worker-side ``fabric_worker_*`` counters.
    """

    def __init__(self, client: FabricClient, worker: str | None = None,
                 poll_s: float = 0.1, lease_error_limit: int = 3,
                 registry: MetricRegistry | None = None) -> None:
        self.client = client
        self.worker = worker if worker is not None else worker_id()
        self.poll_s = float(poll_s)
        self.lease_error_limit = int(lease_error_limit)
        self.registry = registry if registry is not None else MetricRegistry()
        self._stop = threading.Event()
        self.done = 0
        self.failed = 0
        self._m_done = self.registry.counter(
            "fabric_worker_points_total", "points this worker resolved",
            labelnames=("status",))

    def stop(self) -> None:
        """Graceful drain: finish the in-flight point, then exit."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    # -- the loop ----------------------------------------------------------
    def run_forever(self) -> int:
        """Pull until the coordinator drains (or :meth:`stop`).

        Returns the number of points completed.  A failed pull is
        tolerated up to ``lease_error_limit`` consecutive times
        (transient flap, degraded node) and then treated as a drain —
        a vanished coordinator has reclaimed (or lost) our leases
        either way.  A failed pull is retried at once: the HTTP
        transport already backs off between its connection retries,
        and the error limit bounds the streak.
        """
        lease_errors = 0
        while not self._stop.is_set():
            try:
                doc = self.client.lease(self.worker, wait_s=self.poll_s)
            except (TransportError, ApiError):
                lease_errors += 1
                if lease_errors >= self.lease_error_limit:
                    break
                continue
            lease_errors = 0
            if doc.get("item") is None:
                if doc.get("shutdown"):
                    break
                continue
            self._run_one(doc)
        return self.done

    def run_one(self) -> bool:
        """Pull and run a single point (tests); ``True`` if one ran."""
        doc = self.client.lease(self.worker)
        if doc.get("item") is None:
            return False
        self._run_one(doc)
        return True

    def _run_one(self, doc: dict) -> None:
        """Run the point of one lease response and report it.

        The coordinator's ``lease_s`` paces the heartbeats and the
        item's own ``timeout_s`` is the deadline, so both apply no
        matter which worker the point lands on.  A point that cannot be
        verified or unpickled fails like one that raises: reported and
        charged, while the worker pulls on.
        """
        item = doc["item"]
        item_id = item["id"]
        # Re-bind the enqueuer's context (it rode here inside the lease
        # response): every event this worker emits for the point — and
        # every protocol call it makes about it, via the transport's
        # ``X-Repro-Context`` header — carries the submitting job's ids.
        ctx = dict(item.get("ctx") or {})
        ctx["worker_id"] = self.worker
        ctx["point_key"] = item.get("key")
        with obs_bind(**ctx):
            obs_emit("point_execute_start", item=item_id,
                     attempts=item.get("attempts"))
            with _Heartbeat(self.client, self.worker, item_id,
                            doc["lease_s"], item.get("timeout_s")) as beat:
                try:
                    point = decode_payload(doc["point"],
                                           key=self.client.payload_key)
                    value = point.execute()
                except Exception as exc:
                    self.failed += 1
                    self._m_done.labels(status="failed").inc()
                    obs_emit("point_execute_failed", level="error",
                             item=item_id, error=repr(exc))
                    self._report(lambda: self.client.fail(
                        self.worker, item_id, repr(exc)))
                    return
            # A lost lease (reclaimed mid-run) still ships its result:
            # it is deterministic, and the coordinator counts it as a
            # late completion.
            self.done += 1
            self._m_done.labels(status="done").inc()
            obs_emit("point_execute_done", item=item_id,
                     lease_lost=beat.lost.is_set())
            self._report(lambda: self.client.complete(
                self.worker, item_id, value))

    @staticmethod
    def _report(call) -> None:
        """Best-effort report: an unreachable coordinator must not kill
        the worker loop — the lease protocol recovers the item."""
        try:
            call()
        except ServiceError:
            pass
