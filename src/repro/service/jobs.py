"""Job model for the simulation service: specs, states, serialization.

A *job* is one unit of queued work: either a registered
:class:`~repro.bench.registry.ExperimentSpec` at a named variant
(``{"experiment": "E6", "variant": "quick"}``) or a raw batch of
simulation points (``{"points": [{"kind": "train", ...}, ...]}``)
rendered in a restricted JSON form that maps onto
:class:`~repro.runner.simpoint.TrainPoint` / ``OSUPoint``.

Specs are validated at submission time (:func:`parse_spec`) so the
queue only ever holds executable work, and canonicalized so that a
job's ``spec_key`` — SHA-256 over the canonical spec JSON — identifies
identical submissions: the scheduler executes every job, but identical
work resolves straight out of the content-addressed ResultCache.

State machine::

    SUBMITTED -> LEASED -> RUNNING -> DONE
                                   -> FAILED      (any error but a spent
                                                   point budget; no retry)
                                   -> QUARANTINED (poison: a point spent its
                                                   retries, or the job
                                                   crashed the scheduler
                                                   repeatedly)
              <- LEASED/RUNNING    (the scheduler died: crash recovery,
                                    counted in ``recoveries``)
    SUBMITTED -> CANCELLED

Jobs are plain dataclasses serialized to/from JSON dicts; the queue
journals them and the API returns them verbatim.
"""

from __future__ import annotations

import hashlib
import json
import uuid
from dataclasses import asdict, dataclass, field

__all__ = [
    "Job",
    "JobState",
    "SpecError",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "build_points",
    "parse_spec",
    "spec_key",
]


class JobState:
    """String constants for the job lifecycle."""

    SUBMITTED = "SUBMITTED"
    LEASED = "LEASED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    QUARANTINED = "QUARANTINED"
    CANCELLED = "CANCELLED"

    ALL = (SUBMITTED, LEASED, RUNNING, DONE, FAILED, QUARANTINED, CANCELLED)


#: States that count against a tenant's active-job quota.
ACTIVE_STATES = (JobState.SUBMITTED, JobState.LEASED, JobState.RUNNING)
#: States a job never leaves.
TERMINAL_STATES = (JobState.DONE, JobState.FAILED, JobState.QUARANTINED,
                   JobState.CANCELLED)


class SpecError(ValueError):
    """A submitted job spec failed validation."""


#: Point fields accepted over the API, per kind.  Arbitrary knobs
#: (SystemConfig objects, fault schedules, callables) are deliberately
#: not expressible — the network surface stays declarative.
_TRAIN_FIELDS = {"gpus": int, "config": str, "model": str,
                 "iterations": int, "per_gpu_batch": int, "seed": int}
_OSU_FIELDS = {"gpus": int, "library": str, "nbytes": int,
               "iterations": int, "algorithm": str}
_CONFIG_NAMES = ("default", "tuned")
_MODEL_NAMES = ("deeplab", "resnet50", "resnet101", "mobilenetv2")


def _check_fields(point: dict, allowed: dict, index: int) -> None:
    for name, value in point.items():
        if name == "kind":
            continue
        if name not in allowed:
            raise SpecError(
                f"points[{index}]: unknown field {name!r} "
                f"(allowed: kind, {', '.join(sorted(allowed))})"
            )
        if not isinstance(value, allowed[name]):
            raise SpecError(
                f"points[{index}].{name}: expected "
                f"{allowed[name].__name__}, got {type(value).__name__}"
            )


def _parse_point(point, index: int) -> dict:
    if not isinstance(point, dict):
        raise SpecError(f"points[{index}]: expected an object")
    kind = point.get("kind", "train")
    if kind == "train":
        _check_fields(point, _TRAIN_FIELDS, index)
        out = {"kind": "train",
               "gpus": point.get("gpus", 24),
               "config": point.get("config", "tuned"),
               "model": point.get("model", "deeplab"),
               "iterations": point.get("iterations", 3),
               "seed": point.get("seed", 0)}
        if point.get("per_gpu_batch") is not None:
            out["per_gpu_batch"] = point["per_gpu_batch"]
        if out["config"] not in _CONFIG_NAMES:
            raise SpecError(
                f"points[{index}].config must be one of {_CONFIG_NAMES}")
        if out["model"] not in _MODEL_NAMES:
            raise SpecError(
                f"points[{index}].model must be one of {_MODEL_NAMES}")
    elif kind == "osu_allreduce":
        _check_fields(point, _OSU_FIELDS, index)
        from repro.mpi.libraries import MPI_LIBRARIES

        out = {"kind": "osu_allreduce",
               "gpus": point.get("gpus", 12),
               "library": point.get("library", "MVAPICH2-GDR"),
               "nbytes": point.get("nbytes", 65536),
               "iterations": point.get("iterations", 3)}
        if point.get("algorithm") is not None:
            out["algorithm"] = point["algorithm"]
        if out["library"] not in MPI_LIBRARIES:
            raise SpecError(
                f"points[{index}].library must be one of "
                f"{sorted(MPI_LIBRARIES)}")
    else:
        raise SpecError(
            f"points[{index}].kind must be 'train' or 'osu_allreduce', "
            f"got {kind!r}")
    if out["gpus"] < 1:
        raise SpecError(f"points[{index}].gpus must be >= 1")
    if out["iterations"] < 1:
        raise SpecError(f"points[{index}].iterations must be >= 1")
    return out


def parse_spec(payload) -> dict:
    """Validate a submission payload into a canonical job spec.

    Returns either ``{"experiment": <id>, "variant": "quick"|"full"}``
    (validated against the registry) or ``{"points": [<point>, ...]}``
    with every point normalized.  Raises :class:`SpecError` with a
    client-presentable message otherwise.
    """
    if not isinstance(payload, dict):
        raise SpecError("job spec must be a JSON object")
    has_exp = "experiment" in payload
    has_points = "points" in payload
    if has_exp == has_points:
        raise SpecError(
            "job spec must carry exactly one of 'experiment' or 'points'")
    if has_exp:
        from repro.bench.registry import REGISTRY

        exp_id = payload["experiment"]
        if exp_id not in REGISTRY:
            raise SpecError(
                f"unknown experiment {exp_id!r}; known: "
                f"{', '.join(REGISTRY)}")
        variant = payload.get("variant", "quick")
        if variant not in ("quick", "full"):
            raise SpecError("variant must be 'quick' or 'full'")
        return {"experiment": exp_id, "variant": variant}
    points = payload["points"]
    if not isinstance(points, list) or not points:
        raise SpecError("'points' must be a non-empty list")
    return {"points": [_parse_point(p, i) for i, p in enumerate(points)]}


def spec_key(spec: dict) -> str:
    """Content key over the canonical spec JSON (identical-work id)."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_points(spec: dict) -> list:
    """Materialize a points spec into executable ``SimPoint`` objects."""
    from repro.core import paper_default_config, paper_tuned_config
    from repro.mpi.libraries import MPI_LIBRARIES
    from repro.runner import OSUPoint, TrainPoint

    configs = {"default": paper_default_config, "tuned": paper_tuned_config}
    out = []
    for point in spec["points"]:
        if point["kind"] == "train":
            out.append(TrainPoint(
                gpus=point["gpus"],
                config=configs[point["config"]](),
                model=point["model"],
                per_gpu_batch=point.get("per_gpu_batch"),
                iterations=point["iterations"],
                seed=point["seed"],
            ))
        else:
            out.append(OSUPoint(
                gpus=point["gpus"],
                library=MPI_LIBRARIES[point["library"]],
                nbytes=point["nbytes"],
                iterations=point["iterations"],
                algorithm=point.get("algorithm"),
            ))
    return out


@dataclass
class Job:
    """One queued unit of work plus its full lifecycle accounting."""

    id: str
    tenant: str
    spec: dict
    spec_key: str
    priority: int = 0
    state: str = JobState.SUBMITTED
    created_s: float = 0.0
    started_s: float | None = None
    finished_s: float | None = None
    elapsed_s: float | None = None
    attempts: int = 0
    #: Times a scheduler crash/restart found this job mid-lease.
    recoveries: int = 0
    #: Wall time the current (or last) lease was granted — the anchor
    #: for the submit->lease and lease->start stage latencies.
    leased_s: float | None = None
    #: Live progress (``{"done", "total", "cached", "point",
    #: "updated_s"}``).  Liveness, not durable state: refreshed in
    #: memory while the job runs, never journaled.
    progress: dict = field(default_factory=dict)
    #: Monotonic change counter for watchers (SSE / long-poll): bumped
    #: on every visible mutation, never journaled.
    version: int = 0
    worker: str | None = None
    error: str | None = None
    result_path: str | None = None
    #: Runner accounting for the completed attempt (cache hits etc.);
    #: *not* part of the result envelope — determinism gates ignore it.
    runner: dict = field(default_factory=dict)

    @classmethod
    def create(cls, spec: dict, tenant: str = "anonymous",
               priority: int = 0, now: float = 0.0) -> "Job":
        """A fresh SUBMITTED job with a random id."""
        return cls(id=uuid.uuid4().hex[:16], tenant=tenant, spec=spec,
                   spec_key=spec_key(spec), priority=int(priority),
                   created_s=float(now))

    def to_dict(self) -> dict:
        """JSON-able form (journal records and API responses)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})

    @property
    def terminal(self) -> bool:
        """Whether the job can never change state again."""
        return self.state in TERMINAL_STATES
