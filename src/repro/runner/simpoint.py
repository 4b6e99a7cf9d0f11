"""Simulation points: the unit of work the runner executes and caches.

A *point* is one fully-specified, deterministic simulation — everything
:func:`~repro.core.sweep.measure_training` (or an OSU microbenchmark)
needs to reproduce a result bit-for-bit.  Because the simulation is a
pure function of the point, a point doubles as a **cache key**: its
:meth:`SimPoint.key` is a SHA-256 over a canonical JSON rendering of
every knob plus a code-version salt, stable across processes, platforms
and interpreter restarts.

Two concrete kinds exist:

* :class:`TrainPoint` — one measured training run (the hot path of every
  sweep experiment and the staged tuner);
* :class:`OSUPoint` — one OSU-style allreduce latency measurement (E3).

Points are small frozen dataclasses, picklable by construction, so a
:class:`~repro.runner.pool.Runner` can ship them to worker processes and
ship the resulting :class:`~repro.core.sweep.Measurement` back.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import ClassVar

from repro.core.knobs import SystemConfig
from repro.faults import FaultSchedule
from repro.mpi.libraries import MPILibrary

__all__ = ["OSUPoint", "SimPoint", "TrainPoint", "cache_salt"]

#: Bump when simulation semantics change in a way that invalidates cached
#: Measurements without a package-version bump (cost model recalibration,
#: collective algorithm fixes, trainer scheduling changes, ...).
SIM_SALT = "sim-3"


def cache_salt() -> str:
    """Code-version salt mixed into every cache key.

    Combines the package version with :data:`SIM_SALT` so stale caches
    from older code can never satisfy a lookup from newer code.
    """
    import repro

    return f"{repro.__version__}+{SIM_SALT}"


def _canonical(value):
    """Recursively render a knob value into canonical JSON-able form.

    Dataclasses become ``{"__type__": name, **compare_fields}`` (fields
    declared ``compare=False`` — display notes and the like — are
    excluded, so cosmetic edits don't invalidate caches); mappings are
    key-sorted; sequences become lists.  Anything else must already be a
    JSON scalar.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {"__type__": type(value).__name__}
        for f in dataclasses.fields(value):
            if f.compare:
                out[f.name] = _canonical(getattr(value, f.name))
        return out
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} into a cache key"
    )


@dataclass(frozen=True)
class SimPoint:
    """Base class: key machinery shared by every point kind."""

    #: Discriminator mixed into the key so different point kinds with
    #: coincidentally equal fields can never collide.
    kind: ClassVar[str] = "abstract"

    def payload(self) -> dict:
        """Canonical knob dict (every field, canonicalized)."""
        return {
            f.name: _canonical(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }

    def key(self) -> str:
        """Content-addressed cache key: SHA-256 hex over salt + knobs."""
        doc = {"kind": self.kind, "salt": cache_salt(), "knobs": self.payload()}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def execute(self):
        """Run the simulation this point specifies (subclasses only)."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line label for progress displays."""
        return f"{self.kind} point"


@dataclass(frozen=True)
class TrainPoint(SimPoint):
    """One measured training run — mirrors ``measure_training``'s knobs.

    Field names and defaults match
    :func:`~repro.core.sweep.measure_training` exactly, so
    ``TrainPoint(**kwargs).execute()`` is interchangeable with
    ``measure_training(**kwargs)`` for every hashable argument.
    Faults are declarative (:class:`~repro.faults.FaultSchedule`), so
    faulted runs hash and cache like any other point.
    """

    kind: ClassVar[str] = "train"

    gpus: int
    config: SystemConfig
    model: str = "deeplab"
    per_gpu_batch: int | None = None
    iterations: int = 4
    warmup_iterations: int = 1
    jitter_std: float = 0.03
    seed: int = 0
    negotiation: str = "analytic"
    schedule: FaultSchedule | None = None
    #: Observer level (``None`` | ``"spans"`` | ``"links"``) — see
    #: ``measure_training``'s ``trace=``.
    trace: str | None = None

    def execute(self):
        """Run the measurement (imports lazily: workers pay once)."""
        from repro.core.sweep import measure_training

        return measure_training(
            gpus=self.gpus,
            config=self.config,
            model=self.model,
            per_gpu_batch=self.per_gpu_batch,
            iterations=self.iterations,
            warmup_iterations=self.warmup_iterations,
            jitter_std=self.jitter_std,
            seed=self.seed,
            negotiation=self.negotiation,
            schedule=self.schedule,
            trace=self.trace,
        )

    def describe(self) -> str:
        """E.g. ``deeplab@24gpus it=3 MVAPICH2-GDR | fusion=128MiB ...``."""
        return (f"{self.model}@{self.gpus}gpus it={self.iterations} "
                f"{self.config.label}")


@dataclass(frozen=True)
class OSUPoint(SimPoint):
    """One OSU-style allreduce latency measurement on a fresh slice."""

    kind: ClassVar[str] = "osu_allreduce"

    gpus: int
    library: MPILibrary
    nbytes: int
    iterations: int = 5
    algorithm: str | None = None

    def execute(self):
        """Build a Summit slice and time the collective."""
        from repro.cluster import Fabric, build_summit
        from repro.mpi.communicator import Comm
        from repro.mpi.osu import osu_allreduce
        from repro.sim import Environment

        env = Environment()
        topo = build_summit(env, nodes=max(1, math.ceil(self.gpus / 6)))
        comm = Comm(Fabric(topo), topo.gpus()[: self.gpus], self.library)
        return osu_allreduce(comm, self.nbytes, iterations=self.iterations,
                             algorithm=self.algorithm)

    def describe(self) -> str:
        """E.g. ``osu_allreduce 65536B @24gpus MVAPICH2-GDR``."""
        return (f"osu_allreduce {self.nbytes}B @{self.gpus}gpus "
                f"{self.library.name}")
