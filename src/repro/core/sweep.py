"""The measurement driver: one call = one simulated training run.

:func:`measure_training` is the single entry point every benchmark,
example and the staged tuner uses.  It assembles the whole stack — Summit
slice of the requested size, MPI library, Horovod runtime, model profile,
trainer — runs a short measured job, and returns a
:class:`Measurement`.

Model iteration profiles are cached per (model, batch) because building
the DLv3+ layer graph is pure overhead across the hundreds of
measurements a sweep performs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster import Fabric, build_summit
from repro.core.knobs import SystemConfig
from repro.horovod.runtime import HorovodRuntime, RuntimeStats
from repro.horovod.timeline import Timeline
from repro.models import (
    ModelCost,
    build_deeplabv3plus,
    build_mobilenetv2,
    build_resnet50,
    build_resnet101,
)
from repro.models.costmodel import IterationProfile
from repro.mpi.communicator import Comm
from repro.sim import Environment
from repro.train import DistributedTrainer, TrainJob
from repro.train.stats import TrainStats

__all__ = [
    "Measurement",
    "build_fault_report",
    "clear_profile_cache",
    "measure_many",
    "measure_training",
    "model_profile",
]

#: Summit has 6 GPUs per node; GPU counts that are not multiples of 6
#: occupy the last node partially (as real jobs do).
GPUS_PER_NODE = 6

_PROFILE_CACHE: dict[tuple[str, int], IterationProfile] = {}

#: Model registry for the sweep driver: name -> (builder, default batch).
MODEL_BUILDERS = {
    "deeplab": (build_deeplabv3plus, 8),
    "resnet50": (build_resnet50, 128),
    "resnet101": (build_resnet101, 96),
    "mobilenetv2": (build_mobilenetv2, 192),
}


def model_profile(model: str, per_gpu_batch: int | None = None) -> IterationProfile:
    """The cached V100 iteration profile for a registry model."""
    if model not in MODEL_BUILDERS:
        raise KeyError(f"unknown model {model!r}; available: {sorted(MODEL_BUILDERS)}")
    builder, default_batch = MODEL_BUILDERS[model]
    batch = per_gpu_batch if per_gpu_batch is not None else default_batch
    key = (model, batch)
    if key not in _PROFILE_CACHE:
        _PROFILE_CACHE[key] = ModelCost(builder()).profile(batch)
    return _PROFILE_CACHE[key]


def clear_profile_cache() -> None:
    """Drop cached profiles (tests that tweak cost constants need this)."""
    _PROFILE_CACHE.clear()


@dataclass(frozen=True)
class Measurement:
    """Outcome of one simulated training run."""

    gpus: int
    config: SystemConfig
    model: str
    stats: TrainStats
    runtime_stats: RuntimeStats
    timeline: Timeline
    #: Compute-only single-GPU throughput (the ideal-scaling baseline).
    single_gpu_images_per_second: float
    #: Per-link-type fabric utilization over the run (where time went).
    link_utilization: dict = None
    #: Resilience counters, present when a fault schedule was injected.
    fault_report: dict | None = None
    #: :class:`~repro.telemetry.TelemetryProbe` attached to the run, when
    #: measured with ``telemetry=True`` (feeds the attribution engine).
    telemetry: object = None
    #: :class:`~repro.trace.SpanRecorder` attached to the run, when
    #: measured with ``trace=`` (feeds the critical-path engine).
    trace: object = None
    #: :class:`~repro.checkpoint.TrainCheckpoint` captured at the last
    #: plan boundary, when measured with ``checkpoint=``.
    checkpoint: object = None
    #: ``{boundary: TrainCheckpoint}`` for the plan's explicit ``at``
    #: boundaries — the handles :mod:`repro.runner.prefix` resumes from.
    checkpoints: dict | None = None
    #: True when the run was killed before completing (``ProcessKill`` /
    #: ``CheckpointPlan.stop_at``) — the stats above are partial.
    interrupted: bool = False

    @property
    def images_per_second(self) -> float:
        """Measured steady-state aggregate throughput."""
        return self.stats.images_per_second

    @property
    def scaling_efficiency(self) -> float:
        """Throughput / (GPUs × single-GPU compute throughput)."""
        return self.images_per_second / (
            self.gpus * self.single_gpu_images_per_second
        )

    @property
    def label(self) -> str:
        """Config label for tables."""
        return self.config.label


def build_fault_report(injector, timeline, comm, runtime, trainer) -> dict:
    """Assemble the resilience counters dict for a faulted run.

    Shared between :func:`measure_training` and
    :func:`repro.checkpoint.resume_training` so both produce the same
    payload shape (a resumed run must compare equal to an uninterrupted
    one field for field).
    """
    totals = timeline.total_by_phase()
    return {
        "faults_applied": injector.stats.applied,
        "faults_reverted": injector.stats.reverted,
        "flap_cycles": injector.stats.flap_cycles,
        "crashes": injector.stats.crashes,
        "restarts": injector.stats.restarts,
        "job_kills": getattr(injector.stats, "kills", 0),
        "transfer_retries": comm.transfer_retries,
        "transfer_timeouts": comm.transfer_timeouts,
        "suspects": runtime.stats.suspects,
        "suspects_cleared": runtime.stats.suspects_cleared,
        "rank_crashes": runtime.stats.rank_crashes,
        "rank_restarts": runtime.stats.rank_restarts,
        "suspect_seconds": runtime.stats.suspect_seconds,
        "fault_phase_seconds": {
            phase: totals.get(phase, 0.0)
            for phase in ("FAULT", "SUSPECT", "RECOVER")
        },
        "surviving_ranks": len(runtime.active),
        "completed_iterations": dict(trainer.completed_iterations),
    }


def measure_training(
    gpus: int,
    config: SystemConfig,
    model: str = "deeplab",
    per_gpu_batch: int | None = None,
    iterations: int = 4,
    warmup_iterations: int = 1,
    jitter_std: float = 0.03,
    seed: int = 0,
    negotiation: str = "analytic",
    fault=None,
    schedule=None,
    telemetry=None,
    checkpoint=None,
    trace=None,
) -> Measurement:
    """Simulate a measured training job and return its statistics.

    Builds a fresh Summit slice with ``ceil(gpus / 6)`` nodes, runs
    ``iterations`` synchronous data-parallel steps of ``model`` under the
    given :class:`~repro.core.knobs.SystemConfig`, and reports throughput
    against the calibrated single-GPU compute baseline.

    ``fault`` is an optional fault-injection hook ``fault(topology)``
    applied after the cluster is built (e.g. degrade a rail with
    :meth:`~repro.cluster.topology.Topology.degrade_link`).

    ``schedule`` is an optional :class:`~repro.faults.FaultSchedule`; a
    :class:`~repro.faults.FaultInjector` is wired across topology,
    runtime and trainer, and the Measurement gains a ``fault_report``.

    ``telemetry`` attaches observability: ``True`` builds a fresh
    :class:`~repro.telemetry.TelemetryProbe`, or pass an existing probe.
    The probe is threaded through every layer (observation-only — the
    simulated timings are unchanged) and returned on
    ``Measurement.telemetry``, ready for
    :func:`~repro.telemetry.attribute_measurement`.

    ``checkpoint`` captures resumable state at iteration boundaries: an
    int is shorthand for ``CheckpointPlan(every=n)``, or pass a full
    :class:`~repro.checkpoint.CheckpointPlan` (``stop_at`` interrupts the
    run at that boundary; ``path`` persists the latest capture to disk).
    The captured :class:`~repro.checkpoint.TrainCheckpoint` is returned
    on ``Measurement.checkpoint``, ready for
    :func:`~repro.checkpoint.resume_training`.

    ``trace`` attaches span tracing: ``"spans"`` (or ``True``) records the
    hierarchical span tree down to per-rank algorithm steps, ``"links"``
    additionally records per-link transfer spans; an existing
    :class:`~repro.trace.SpanRecorder` is also accepted.  Like the probe,
    tracing is observation-only — simulated timings are bit-identical —
    and the recorder is returned on ``Measurement.trace``, ready for
    :func:`~repro.trace.compute_critical_path`.
    """
    if gpus < 1:
        raise ValueError(f"gpus must be >= 1, got {gpus}")
    plan = None
    if checkpoint is not None:
        from repro.checkpoint import CheckpointPlan

        plan = (
            checkpoint
            if isinstance(checkpoint, CheckpointPlan)
            else CheckpointPlan(every=int(checkpoint))
        )
        if fault is not None:
            raise ValueError(
                "checkpoint= cannot be combined with the fault= callable "
                "(its topology mutation has no resumable representation); "
                "use a FaultSchedule instead"
            )
    profile = model_profile(model, per_gpu_batch)
    env = Environment()
    nodes = max(1, math.ceil(gpus / GPUS_PER_NODE))
    topo = build_summit(env, nodes=nodes)
    if fault is not None:
        fault(topo)
    comm = Comm(Fabric(topo), topo.gpus()[:gpus], config.library)
    timeline = Timeline()
    runtime = HorovodRuntime(
        comm, config.horovod, timeline=timeline, negotiation=negotiation
    )
    job = TrainJob(
        iterations=iterations,
        per_gpu_batch=profile.batch_size,
        warmup_iterations=warmup_iterations,
        jitter_std=jitter_std,
        seed=seed,
    )
    fabric = comm.fabric
    probe = None
    if telemetry:
        from repro.telemetry import TelemetryProbe

        probe = telemetry if isinstance(telemetry, TelemetryProbe) else TelemetryProbe()
    injector = None
    if schedule is not None:
        from repro.faults import FaultInjector

        injector = FaultInjector(env, schedule, topology=topo, timeline=timeline)
        trainer = DistributedTrainer(
            runtime, profile, job, faults=injector, probe=probe, checkpoint=plan
        )
        injector.bind(runtime=runtime, trainer=trainer).start()
    else:
        trainer = DistributedTrainer(
            runtime, profile, job, probe=probe, checkpoint=plan
        )
    if probe is not None:
        probe.attach(
            env=env, comm=comm, runtime=runtime, trainer=trainer, fabric=fabric
        )
    tracer = None
    if trace:
        from repro.trace import SpanRecorder

        tracer = (trace if isinstance(trace, SpanRecorder)
                  else SpanRecorder(level="spans" if trace is True else trace))
        tracer.attach(
            env=env, comm=comm, runtime=runtime, trainer=trainer, fabric=fabric
        )
    stats = trainer.run()
    if probe is not None:
        probe.finalize()
    fault_report = None
    if injector is not None:
        fault_report = build_fault_report(
            injector, timeline, comm, runtime, trainer
        )
    train_checkpoint = None
    train_checkpoints = None
    if plan is not None and trainer.last_checkpoint_state is not None:
        from repro.checkpoint import TrainCheckpoint, write_checkpoint

        spec = {
            "gpus": gpus,
            "config": config,
            "model": model,
            "per_gpu_batch": per_gpu_batch,
            "iterations": iterations,
            "warmup_iterations": warmup_iterations,
            "jitter_std": jitter_std,
            "seed": seed,
            "negotiation": negotiation,
            "schedule": schedule,
            "trace": tracer.level if tracer is not None else None,
        }
        train_checkpoint = TrainCheckpoint(
            spec=spec, state=trainer.last_checkpoint_state
        )
        if trainer.checkpoint_states:
            train_checkpoints = {
                boundary: TrainCheckpoint(spec=spec, state=state)
                for boundary, state in sorted(trainer.checkpoint_states.items())
            }
        if plan.path is not None:
            write_checkpoint(plan.path, train_checkpoint)
    return Measurement(
        gpus=gpus,
        config=config,
        model=model,
        stats=stats,
        runtime_stats=runtime.stats,
        timeline=timeline,
        single_gpu_images_per_second=profile.images_per_second,
        link_utilization=fabric.utilization_report(),
        fault_report=fault_report,
        telemetry=probe,
        trace=tracer,
        checkpoint=train_checkpoint,
        checkpoints=train_checkpoints,
        interrupted=trainer.job_killed,
    )


def measure_many(calls, runner=None) -> list[Measurement]:
    """Batch form of :func:`measure_training` for independent points.

    ``calls`` is a sequence of keyword dicts, each a valid argument set
    for :func:`measure_training` (``gpus`` and ``config`` required; the
    ``fault`` callable is not supported — it has no canonical cacheable
    form).  Results come back in input order.  With ``runner=None`` an
    inline serial :class:`~repro.runner.Runner` is used, which replicates
    calling :func:`measure_training` in a loop exactly; pass a configured
    runner to fan the batch across worker processes and/or the result
    cache.
    """
    from repro.runner import Runner, TrainPoint

    points = [TrainPoint(**kwargs) for kwargs in calls]
    return (runner if runner is not None else Runner()).run(points)
