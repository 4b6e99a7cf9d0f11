"""The measurement driver: one call = one simulated training run.

:func:`measure_training` is the single entry point every benchmark,
example and the staged tuner uses.  :func:`simulate` assembles the whole
stack — Summit slice of the requested size, MPI library, Horovod
runtime, model profile, trainer — runs a short measured job, and returns
a :class:`Measurement`; a run resumed from a checkpoint takes the same
path (:func:`repro.checkpoint.resume_training`).

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
    "clear_profile_cache",
    "measure_training",
    "model_profile",
    "simulate",
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
    #: :class:`~repro.trace.SpanRecorder` attached to the run, when
    #: measured with ``trace=``: spans for the critical-path engine, and
    #: the run's simulated-time metrics on ``trace.registry``.
    trace: object = None
    #: :class:`~repro.checkpoint.TrainCheckpoint` captured at the last
    #: plan boundary, when measured with ``checkpoint=``.
    checkpoint: object = None
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
    schedule=None,
    checkpoint=None,
    trace=None,
) -> Measurement:
    """Simulate a measured training job and return its statistics.

    Validates the arguments and hands their spec to :func:`simulate`,
    which builds a fresh Summit slice with ``ceil(gpus / 6)`` nodes, runs
    ``iterations`` synchronous data-parallel steps of ``model`` under the
    given :class:`~repro.core.knobs.SystemConfig`, and reports throughput
    against the calibrated single-GPU compute baseline.  The run ends
    when its Horovod coordinator exits, after the last iteration: the
    clock, the link utilization and the fault report stop there.

    ``schedule`` is an optional :class:`~repro.faults.FaultSchedule`,
    the one way to inject faults (a rail degraded for the whole run is
    a :class:`~repro.faults.DegradedRail` from ``start_s=0``); a
    :class:`~repro.faults.FaultInjector` is wired across topology,
    runtime and trainer, and the Measurement gains a ``fault_report``.
    A fault window still open when the run ends closes then (reverted,
    counted and its FAULT span ended at that instant); a fault due later
    never fires.

    ``checkpoint`` captures resumable state at iteration boundaries: an
    int is shorthand for ``CheckpointPlan(every=n)``, or pass a full
    :class:`~repro.checkpoint.CheckpointPlan` (``stop_at`` interrupts the
    run at that boundary; ``path`` persists the latest capture to disk).
    The captured :class:`~repro.checkpoint.TrainCheckpoint` is returned
    on ``Measurement.checkpoint``, ready for
    :func:`~repro.checkpoint.resume_training`.

    ``trace`` attaches the run's observer, a
    :class:`~repro.trace.SpanRecorder`: ``"spans"`` (or ``True``) records
    the hierarchical span tree down to per-rank algorithm steps plus the
    simulated-time metric registry, ``"links"`` additionally records
    per-link transfer spans; an existing recorder is also accepted.  The
    recorder is threaded through every layer (observation-only — the
    simulated timings are bit-identical), stamped with the run context
    and returned on ``Measurement.trace``, ready for
    :func:`~repro.trace.explain_measurement`.
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
    tracer = None
    if trace:
        from repro.trace import SpanRecorder

        tracer = (trace if isinstance(trace, SpanRecorder)
                  else SpanRecorder(level="spans" if trace is True else trace))
        tracer.run = {"gpus": gpus, "label": config.label,
                      "warmup_iterations": warmup_iterations}
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
    return simulate(spec, plan=plan, tracer=tracer)


def simulate(spec: dict, *, plan=None, tracer=None,
             state: dict | None = None) -> Measurement:
    """Build the stack ``spec`` describes, run it, and measure it.

    The one path of every training run, fresh or resumed.  ``spec`` is
    :func:`measure_training`'s keyword set, the dict a
    :class:`~repro.checkpoint.TrainCheckpoint` carries.  ``plan`` and
    ``tracer`` are the run's checkpoint plan and observer.  ``state`` is
    a trainer snapshot: the run then starts at its captured clock and
    :meth:`~repro.train.DistributedTrainer.restore` puts everything else
    back, the captured observer included.  Construction order (the
    coordinator process first, injector drivers next, rank processes
    last) is the same either way, so same-instant events tie-break as
    in the uninterrupted run.
    """
    gpus = spec["gpus"]
    config = spec["config"]
    profile = model_profile(spec["model"], spec["per_gpu_batch"])
    env = (Environment() if state is None
           else Environment(initial_time=state["clock"]))
    topo = build_summit(env, nodes=max(1, math.ceil(gpus / GPUS_PER_NODE)))
    comm = Comm(Fabric(topo), topo.gpus()[:gpus], config.library)
    fabric = comm.fabric
    timeline = Timeline()
    runtime = HorovodRuntime(
        comm, config.horovod, timeline=timeline,
        negotiation=spec["negotiation"],
    )
    job = TrainJob(
        iterations=spec["iterations"],
        per_gpu_batch=profile.batch_size,
        warmup_iterations=spec["warmup_iterations"],
        jitter_std=spec["jitter_std"],
        seed=spec["seed"],
    )
    injector = None
    if spec["schedule"] is not None:
        from repro.faults import FaultInjector

        injector = FaultInjector(env, spec["schedule"], topology=topo,
                                 timeline=timeline)
    trainer = DistributedTrainer(runtime, profile, job, faults=injector,
                                 checkpoint=plan)
    if state is not None:
        trainer.restore(state)
        tracer = trainer.tracer
    if injector is not None:
        injector.bind(runtime=runtime, trainer=trainer)
        if state is None:
            injector.start()
        else:
            injector.start_resumed()
    if tracer is not None:
        tracer.attach(
            env=env, comm=comm, runtime=runtime, trainer=trainer, fabric=fabric
        )
        if state is not None:
            tracer.registry.counter(
                "checkpoint_resumes_total", "runs resumed from a checkpoint"
            ).inc()
    stats = trainer.run()
    if tracer is not None:
        tracer.finalize()
    fault_report = None
    if injector is not None:
        totals = timeline.total_by_phase()
        fault_report = {
            "faults_applied": injector.stats.applied,
            "faults_reverted": injector.stats.reverted,
            "flap_cycles": injector.stats.flap_cycles,
            "crashes": injector.stats.crashes,
            "restarts": injector.stats.restarts,
            "job_kills": injector.stats.kills,
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
    train_checkpoint = None
    if plan is not None and trainer.last_checkpoint_state is not None:
        from repro.checkpoint import TrainCheckpoint, write_checkpoint

        train_checkpoint = TrainCheckpoint(
            spec=spec, state=trainer.last_checkpoint_state
        )
        if plan.path is not None:
            write_checkpoint(plan.path, train_checkpoint)
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
        checkpoint=train_checkpoint,
        interrupted=trainer.job_killed,
    )
