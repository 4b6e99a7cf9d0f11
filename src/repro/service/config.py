"""Service configuration: state layout, bearer-token auth, quotas.

Auth is deliberately simple and dependency-free: a JSON config file of
static bearer tokens, each mapping to a tenant name and an optional
per-tenant active-job quota::

    {"tokens": [
        {"token": "s3cret-alice", "tenant": "alice", "max_active_jobs": 4},
        {"token": "s3cret-bob",   "tenant": "bob"}
    ]}

With no token file configured the service runs *open*: every request
acts as the ``anonymous`` tenant under the default quota.  With tokens
configured, requests to tenant-scoped routes must carry
``Authorization: Bearer <token>``; ``/v1/healthz`` and ``/v1/metrics``
stay unauthenticated so probes and scrapers keep working.
"""

from __future__ import annotations

import hmac
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["AuthError", "QuotaError", "ServiceConfig", "TokenAuth"]

#: Fallback active-job quota when neither the config nor the token
#: entry names one.
DEFAULT_MAX_ACTIVE_JOBS = 64


class AuthError(Exception):
    """Missing or invalid bearer token."""


class QuotaError(Exception):
    """The tenant is at its active-job quota."""


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` needs to stand the service up."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (printed at startup).
    port: int = 8765
    state_dir: Path = Path("bench_results") / "service"
    tokens_path: Path | None = None
    workers: int = 2
    #: Charged failures each point may retry, the only retry a job
    #: gets: a point that spends them quarantines its job.
    point_retries: int = 1
    max_active_jobs: int = DEFAULT_MAX_ACTIVE_JOBS
    #: Bounded admission: submissions are shed with ``503 +
    #: Retry-After`` once this many jobs sit SUBMITTED (cross-tenant —
    #: the overload backstop behind the per-tenant 429 quota).
    max_queue_depth: int = 128
    #: The ``Retry-After`` hint (seconds) on 429/503 responses.
    retry_after_s: float = 1.0
    #: Execution backend: ``"local"`` runs every job through an inline
    #: Runner; ``"fabric"`` fans points out to a pull-worker fleet via
    #: a :class:`~repro.fabric.FabricRunner` (coordinator in-process,
    #: workers as ``repro worker`` subprocesses).
    backend: str = "local"
    #: Worker fleet width when ``backend == "fabric"``.
    fabric_workers: int = 2

    @property
    def results_dir(self) -> Path:
        """Result envelopes, one ``<job_id>.json`` each."""
        return Path(self.state_dir) / "results"

    @property
    def fabric_dir(self) -> Path:
        """The fabric coordinator's lease journal directory."""
        return Path(self.state_dir) / "fabric"

    @property
    def obs_dir(self) -> Path:
        """Default structured-event log directory (one JSONL per pid)."""
        return Path(self.state_dir) / "obs"

    @property
    def cache_dir(self) -> Path:
        """The service's shared content-addressed result cache."""
        return Path(self.state_dir) / "cache"


@dataclass
class TokenAuth:
    """Static bearer-token table with per-tenant quotas.

    ``tokens`` maps token -> ``(tenant, max_active_jobs | None)``.  An
    empty table means open mode (no auth header required).
    """

    tokens: dict[str, tuple[str, int | None]] = field(default_factory=dict)
    default_quota: int = DEFAULT_MAX_ACTIVE_JOBS

    @classmethod
    def load(cls, path: str | Path | None,
             default_quota: int = DEFAULT_MAX_ACTIVE_JOBS) -> "TokenAuth":
        """Read the token config file (``None`` -> open mode)."""
        if path is None:
            return cls(default_quota=default_quota)
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as err:
            raise ValueError(f"cannot read token file {path}: {err}") from err
        except json.JSONDecodeError as err:
            raise ValueError(f"bad token file {path}: {err}") from err
        entries = data.get("tokens") if isinstance(data, dict) else None
        if not isinstance(entries, list):
            raise ValueError(
                f"bad token file {path}: expected {{\"tokens\": [...]}}")
        tokens: dict[str, tuple[str, int | None]] = {}
        for i, entry in enumerate(entries):
            if (not isinstance(entry, dict) or "token" not in entry
                    or "tenant" not in entry):
                raise ValueError(
                    f"bad token file {path}: tokens[{i}] needs "
                    f"'token' and 'tenant'")
            quota = entry.get("max_active_jobs")
            if quota is not None and (not isinstance(quota, int) or quota < 1):
                raise ValueError(
                    f"bad token file {path}: tokens[{i}].max_active_jobs "
                    f"must be a positive integer")
            tokens[str(entry["token"])] = (str(entry["tenant"]), quota)
        return cls(tokens=tokens, default_quota=default_quota)

    @property
    def enabled(self) -> bool:
        """Whether requests must present a bearer token."""
        return bool(self.tokens)

    def authenticate(self, authorization: str | None) -> str:
        """Resolve an ``Authorization`` header to a tenant name.

        Raises :class:`AuthError` on a missing/malformed header or an
        unknown token.  Token comparison is constant-time.
        """
        if not self.enabled:
            return "anonymous"
        if not authorization or not authorization.startswith("Bearer "):
            raise AuthError("missing bearer token")
        presented = authorization[len("Bearer "):].strip()
        for token, (tenant, _quota) in self.tokens.items():
            if hmac.compare_digest(presented, token):
                return tenant
        raise AuthError("invalid bearer token")

    def quota(self, tenant: str) -> int:
        """The active-job quota for one tenant."""
        for _token, (name, quota) in self.tokens.items():
            if name == tenant and quota is not None:
                return quota
        return self.default_quota

    def check_quota(self, tenant: str, active: int) -> None:
        """Raise :class:`QuotaError` when a submission would exceed it."""
        limit = self.quota(tenant)
        if active >= limit:
            raise QuotaError(
                f"tenant {tenant!r} has {active} active jobs "
                f"(quota {limit}); retry after some complete")
