"""Deterministic training checkpoints: capture plans and resume.

A checkpoint is taken at an **iteration barrier** — the one instant where
every alive rank sits at the same simulated time with no tensors in
flight — so the whole mutable simulation state (clock, per-rank RNG
streams and pipeline clocks, runtime membership and caches, fabric and
communicator counters, timeline, fault-injector progress, span
recorder) reduces to a flat picklable dict.  The
:class:`~repro.train.trainer.DistributedTrainer` produces that dict; this
module wraps it with the run's knob spec into a :class:`TrainCheckpoint`
and rebuilds a live simulation from it.

The resume contract is **bit-identical continuation**: a run interrupted
at boundary *k* and resumed via :func:`resume_training` yields the same
:class:`~repro.core.sweep.Measurement` payload (training statistics,
timeline, link utilization, fault report, attribution buckets)
as the same run left uninterrupted.

Pending :class:`~repro.faults.ProcessKill` specs are stripped on resume —
the kill models the interruption itself, not workload behaviour, so
replaying it would just kill the resumed run again.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
from dataclasses import dataclass, field
from pathlib import Path

from repro.checkpoint.format import CheckpointError, read_checkpoint

__all__ = ["CheckpointPlan", "TrainCheckpoint", "resume_training"]


def _current_salt() -> str:
    from repro.runner.simpoint import SIM_SALT

    return SIM_SALT


def _current_version() -> str:
    import repro

    return repro.package_version()


@dataclass(frozen=True)
class CheckpointPlan:
    """When to capture training checkpoints.

    ``every=N`` captures at every Nth iteration boundary (0 disables the
    cadence); ``stop_at=k`` additionally captures at boundary ``k`` and
    then interrupts the job right there — the deterministic-interrupt
    hook the resume gate tests use.  ``path`` keeps the latest
    checkpoint on disk in the :mod:`repro.checkpoint.format` container.
    """

    every: int = 1
    stop_at: int | None = None
    path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.every < 0:
            raise ValueError("every must be >= 0")
        if self.stop_at is not None and self.stop_at < 1:
            raise ValueError("stop_at must be >= 1")
        if self.every == 0 and self.stop_at is None:
            raise ValueError("plan captures nothing: set every or stop_at")


@dataclass(frozen=True)
class TrainCheckpoint:
    """One captured training state plus the knobs that produced it."""

    #: ``measure_training`` keyword set (gpus, config, model, schedule, ...).
    spec: dict
    #: The trainer's state snapshot (see ``DistributedTrainer._snapshot_state``).
    state: dict
    package_version: str = field(default_factory=_current_version)
    #: Simulation-semantics salt at capture; resume refuses on mismatch.
    sim_salt: str = field(default_factory=_current_salt)

    @property
    def boundary(self) -> int:
        """Iteration boundary the checkpoint was captured at."""
        return self.state["barrier"]

    @property
    def sim_time_s(self) -> float:
        """Simulated clock at capture."""
        return self.state["clock"]

    def summary(self) -> dict:
        """Small JSON-able description for journals and reports."""
        return {
            "boundary": self.boundary,
            "sim_time_s": self.sim_time_s,
            "iterations": self.spec.get("iterations"),
            "gpus": self.spec.get("gpus"),
            "alive_ranks": len(self.state.get("alive", ())),
            "package_version": self.package_version,
            "sim_salt": self.sim_salt,
        }


def resume_training(checkpoint: "TrainCheckpoint | str | Path", *,
                    allow_version_mismatch: bool = False):
    """Rebuild the simulation from ``checkpoint`` and run it to completion.

    ``checkpoint`` is a :class:`TrainCheckpoint` or a path to a file
    written by :func:`~repro.checkpoint.format.write_checkpoint`.
    Returns the completed run's :class:`~repro.core.sweep.Measurement`,
    bit-identical (stats, timeline, attribution) to the uninterrupted
    run of the same spec.
    """
    from repro.cluster import Fabric, build_summit
    from repro.core.sweep import (
        GPUS_PER_NODE,
        Measurement,
        build_fault_report,
        model_profile,
    )
    from repro.faults import FaultInjector, FaultSchedule, ProcessKill
    from repro.horovod.runtime import HorovodRuntime
    from repro.horovod.timeline import Timeline
    from repro.mpi.communicator import Comm
    from repro.sim import Environment
    from repro.train import DistributedTrainer, TrainJob

    if isinstance(checkpoint, (str, Path)):
        checkpoint = read_checkpoint(checkpoint)
    if not isinstance(checkpoint, TrainCheckpoint):
        raise CheckpointError(
            f"not a training checkpoint: {type(checkpoint).__name__}"
        )
    if checkpoint.sim_salt != _current_salt() and not allow_version_mismatch:
        raise CheckpointError(
            f"checkpoint simulation salt {checkpoint.sim_salt!r} does not "
            f"match this code's {_current_salt()!r}; a resumed run would "
            "not be bit-identical (pass allow_version_mismatch=True to "
            "override)"
        )
    spec = dict(checkpoint.spec)
    state = checkpoint.state
    gpus = spec["gpus"]
    config = spec["config"]
    profile = model_profile(spec["model"], spec["per_gpu_batch"])

    # Rebuild the stack at the captured instant.  Construction order
    # mirrors measure_training (coordinator process first, injector
    # drivers next, rank processes last) so same-timestamp event
    # tie-breaking matches the uninterrupted run.
    env = Environment(initial_time=state["clock"])
    topo = build_summit(env, nodes=max(1, math.ceil(gpus / GPUS_PER_NODE)))
    comm = Comm(Fabric(topo), topo.gpus()[:gpus], config.library)
    comm.messages_sent = state["comm"]["messages_sent"]
    comm.transfer_retries = state["comm"]["transfer_retries"]
    comm.transfer_timeouts = state["comm"]["transfer_timeouts"]
    timeline = Timeline(events=list(state["timeline"]))
    runtime = HorovodRuntime(
        comm, config.horovod, timeline=timeline,
        negotiation=spec["negotiation"],
    )
    r = state["runtime"]
    runtime.stats = dataclasses.replace(r["stats"])
    runtime._response_cache = set(r["response_cache"])
    runtime.active = set(r["active"])
    runtime._removed = set(r["removed"])
    runtime._crash_reports = set(r["crash_reports"])
    runtime._suspects = {
        rank: dataclasses.replace(s) for rank, s in r["suspects"].items()
    }
    fabric = comm.fabric
    f = state["fabric"]
    fabric.stats = dataclasses.replace(
        f["stats"], bytes_by_link_type=dict(f["stats"].bytes_by_link_type)
    )
    for link, (carried, busy) in zip(topo.links(), f["links"]):
        link.bytes_carried = carried
        link.busy_seconds = busy

    trace_blob = state.get("trace")
    tracer = pickle.loads(trace_blob) if trace_blob is not None else None
    job = TrainJob(
        iterations=spec["iterations"],
        per_gpu_batch=profile.batch_size,
        warmup_iterations=spec["warmup_iterations"],
        jitter_std=spec["jitter_std"],
        seed=spec["seed"],
    )
    schedule = spec.get("schedule")
    injector = None
    if schedule is not None:
        replayable = FaultSchedule.of(
            *[s for s in schedule if not isinstance(s, ProcessKill)]
        )
        injector = FaultInjector(env, replayable, topology=topo,
                                 timeline=timeline)
        if state["injector"] is not None:
            injector.stats = dataclasses.replace(state["injector"])
        trainer = DistributedTrainer(
            runtime, profile, job, faults=injector, resume_state=state,
        )
        injector.bind(runtime=runtime, trainer=trainer)
        injector.start_resumed()
    else:
        trainer = DistributedTrainer(runtime, profile, job,
                                     resume_state=state)
    if tracer is not None:
        tracer.attach(env=env, comm=comm, runtime=runtime, trainer=trainer,
                      fabric=fabric)
        tracer.registry.counter(
            "checkpoint_resumes_total", "runs resumed from a checkpoint"
        ).inc()
    stats = trainer.run()
    if tracer is not None:
        tracer.finalize()
    fault_report = None
    if injector is not None:
        fault_report = build_fault_report(
            injector, timeline, comm, runtime, trainer
        )
    return Measurement(
        gpus=gpus,
        config=config,
        model=spec["model"],
        stats=stats,
        runtime_stats=runtime.stats,
        timeline=timeline,
        single_gpu_images_per_second=profile.images_per_second,
        link_utilization=fabric.utilization_report(),
        fault_report=fault_report,
        trace=tracer,
        interrupted=trainer.job_killed,
    )
