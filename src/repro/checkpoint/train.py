"""Deterministic training checkpoints: capture plans and resume.

A checkpoint is taken at an **iteration barrier** — the one instant where
every alive rank sits at the same simulated time with no tensors in
flight — so the whole mutable simulation state (clock, per-rank RNG
streams and pipeline clocks, runtime membership and caches, fabric and
communicator counters, timeline, fault-injector progress, span
recorder) reduces to a flat picklable dict.  The
:class:`~repro.train.trainer.DistributedTrainer` writes that dict and is
the one reader of it (``restore``); this module wraps it with the run's
knob spec into a :class:`TrainCheckpoint` and hands both back to
:func:`repro.core.sweep.simulate`, the path a fresh run takes.

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
    """Continue the run ``checkpoint`` captured and run it to completion.

    ``checkpoint`` is a :class:`TrainCheckpoint` or a path to a file
    written by :func:`~repro.checkpoint.format.write_checkpoint`.  The
    run takes a fresh run's path, :func:`repro.core.sweep.simulate`,
    given the captured state.  Returns the completed run's
    :class:`~repro.core.sweep.Measurement`, bit-identical (stats,
    timeline, attribution) to the uninterrupted run of the same spec.
    """
    from repro.core.sweep import simulate
    from repro.faults import FaultSchedule, ProcessKill

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
    if spec["schedule"] is not None:
        spec["schedule"] = FaultSchedule.of(
            *[s for s in spec["schedule"] if not isinstance(s, ProcessKill)]
        )
    return simulate(spec, state=checkpoint.state)
