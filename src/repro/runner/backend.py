"""The unified execution-backend protocol.

Two things execute batches of simulation points — the local
:class:`~repro.runner.pool.Runner` and the distributed
:class:`~repro.fabric.runner.FabricRunner` (a ``Runner`` subclass) —
and they present this one surface, so callers (experiment drivers,
``repro run``, the service scheduler's per-job runners) are
backend-agnostic:

* ``run(points, *, timeout_s=None, retries=None, progress=None) ->
  list`` — resolve a batch, results in input order; the keyword-only
  overrides apply to that batch;
* ``stats`` — a :class:`~repro.runner.pool.RunnerStats`;
* ``meta()`` — accounting dict for result envelopes.

Parameter names are uniform everywhere: ``timeout_s`` (never
``timeout``), ``retries``, ``workers``, ``progress``.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.runner.simpoint import SimPoint

__all__ = ["ExecutionBackend", "ProgressFn"]

#: ``progress(done, total, point, cached)`` — fired per resolved point.
ProgressFn = Callable[[int, int, SimPoint, bool], None]


@runtime_checkable
class ExecutionBackend(Protocol):
    """What every point-execution engine exposes."""

    def run(self, points: Sequence[SimPoint], *,
            timeout_s: float | None = None,
            retries: int | None = None,
            progress: ProgressFn | None = None) -> list:
        """Resolve ``points``; results return in input order."""
        ...

    def meta(self) -> dict:
        """Accounting for result envelopes (workers, hits, retries...)."""
        ...
