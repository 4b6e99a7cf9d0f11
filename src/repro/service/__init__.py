"""Simulation-as-a-service: REST API + persistent queue + scheduler.

The execution substrate (content-addressed
:class:`~repro.runner.ResultCache`, self-healing
:class:`~repro.runner.Runner`, journaled crash recovery) grew through a
one-shot CLI; this package exposes it as a long-running service, so
overlapping sweep submissions from many clients mostly resolve from
cache instead of re-simulating:

* :mod:`repro.service.jobs` — the job model: validated specs
  (registered experiment or raw point batch), the
  SUBMITTED→LEASED→RUNNING→DONE/FAILED/QUARANTINED state machine;
* :mod:`repro.service.queue` — :class:`JobQueue`, a persistent
  priority queue over the fsynced-JSONL journal idiom, with journaled
  leases, exactly-once crash recovery and compaction;
* :mod:`repro.service.scheduler` — :class:`Scheduler`, the worker pool
  draining the queue through one cached runner per job (atomic result
  writes, poison quarantine once a point's retry budget is spent);
* :mod:`repro.service.api` — :class:`Service` (composition root),
  :class:`ServiceApp` (pure request dispatch: jobs, results, registry,
  health, Prometheus metrics, bearer auth, per-tenant quotas) and
  :func:`serve` (stdlib ``ThreadingHTTPServer`` — zero new
  dependencies);
* :mod:`repro.service.client` — :class:`ServiceClient` over HTTP or
  direct in-process dispatch (no sockets), plus
  :mod:`repro.service.config` for tokens and quotas.

CLI surface: ``repro serve``, ``repro submit``, ``repro jobs
ls|show|result|cancel``.
"""

from repro.service.api import Service, ServiceApp, serve, serve_in_thread
from repro.service.client import (
    ApiError,
    ServiceClient,
    ServiceError,
    TransportError,
)
from repro.service.config import (
    AuthError,
    QuotaError,
    ServiceConfig,
    TokenAuth,
)
from repro.service.jobs import (
    ACTIVE_STATES,
    TERMINAL_STATES,
    Job,
    JobState,
    SpecError,
    build_points,
    parse_spec,
    spec_key,
)
from repro.service.queue import JobQueue, QueueError, QueueWriteError
from repro.service.scheduler import Scheduler, points_envelope, write_result

__all__ = [
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "ApiError",
    "AuthError",
    "Job",
    "JobQueue",
    "JobState",
    "QueueError",
    "QueueWriteError",
    "QuotaError",
    "Scheduler",
    "Service",
    "ServiceApp",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SpecError",
    "TokenAuth",
    "TransportError",
    "build_points",
    "parse_spec",
    "points_envelope",
    "serve",
    "serve_in_thread",
    "spec_key",
    "write_result",
]
