"""The paper's staged tuning procedure, runnable end-to-end.

The methodological claim of the paper is that near-linear scaling is
reachable *without touching Horovod, MPI or the model* — by tuning, in
order: (1) the MPI library, (2) the fusion threshold, (3) the cycle time,
(4) hierarchical allreduce.  :class:`StagedTuner` executes exactly that
procedure against the simulated system, measuring each stage's
candidates as one batch of :class:`~repro.runner.TrainPoint` at a probe
scale.

Candidates are compared primarily on throughput and secondarily on
serialized allreduce seconds — the tiebreak matters because at probe
scales where communication still hides under backward, throughput alone
is flat while the exposed-communication risk (what bites at 132 GPUs)
differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from repro.core.knobs import KNOBS, SystemConfig, paper_default_config
from repro.core.sweep import Measurement
from repro.mpi.libraries import MPI_LIBRARIES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import Runner

__all__ = ["StageResult", "StagedTuner", "TuneOutcome"]


@dataclass(frozen=True)
class StageResult:
    """One tuning stage: every candidate tried and the winner."""

    stage: str
    #: (candidate label, images/second, allreduce seconds) per candidate.
    candidates: tuple[tuple[str, float, float], ...]
    chosen: str

    def candidate(self, label: str) -> tuple[str, float, float]:
        """Look up one candidate row by label."""
        for row in self.candidates:
            if row[0] == label:
                return row
        raise KeyError(f"no candidate {label!r} in stage {self.stage!r}")


@dataclass
class TuneOutcome:
    """Everything the staged procedure produced."""

    best: SystemConfig
    stages: list[StageResult] = field(default_factory=list)
    measurements: int = 0

    def stage(self, name: str) -> StageResult:
        """Look up a stage by name."""
        for s in self.stages:
            if s.stage == name:
                return s
        raise KeyError(f"no stage {name!r}")

    def report(self) -> str:
        """Human-readable per-stage summary."""
        lines = [f"staged tuning: {self.measurements} measurements"]
        for s in self.stages:
            lines.append(f"stage {s.stage}: chose {s.chosen}")
            for label, ips, ar in s.candidates:
                marker = "*" if label == s.chosen else " "
                lines.append(
                    f"  {marker} {label:<28} {ips:>9.1f} img/s  "
                    f"allreduce {ar * 1e3:>8.1f} ms"
                )
        lines.append(f"tuned: {self.best.label}")
        return "\n".join(lines)


class StagedTuner:
    """Runs the paper's library → fusion → cycle → hierarchy procedure."""

    def __init__(self, probe_gpus: int = 48, iterations: int = 3,
                 model: str = "deeplab",
                 fusion_grid: Sequence[int] | None = None,
                 cycle_grid: Sequence[float] | None = None,
                 jitter_std: float = 0.0, seed: int = 0,
                 runner: "Runner | None" = None) -> None:
        if probe_gpus < 2:
            raise ValueError("probe_gpus must be >= 2")
        self.probe_gpus = probe_gpus
        self.iterations = iterations
        self.model = model
        self.fusion_grid = tuple(
            fusion_grid if fusion_grid is not None
            else KNOBS["fusion_threshold"].grid
        )
        self.cycle_grid = tuple(
            cycle_grid if cycle_grid is not None else KNOBS["cycle_time"].grid
        )
        self.jitter_std = jitter_std
        self.seed = seed
        self.runner = runner

    # -- machinery ---------------------------------------------------------
    def _measure_all(self, configs: Sequence[SystemConfig]) -> list[Measurement]:
        """Measure every candidate of a stage as one batch (candidates
        within a stage are independent); with no runner given, an inline
        one runs them in order, as a serial loop would."""
        from repro.runner import Runner, TrainPoint

        return (self.runner or Runner()).run([
            TrainPoint(
                gpus=self.probe_gpus,
                config=cfg,
                model=self.model,
                iterations=self.iterations,
                jitter_std=self.jitter_std,
                seed=self.seed,
            )
            for cfg in configs
        ])

    #: Throughputs within this relative band count as tied.  At probe
    #: scales where communication still hides under backward, raw
    #: throughput is flat to <0.5%; real tuning (and this tuner) then
    #: discriminates on the timeline-derived exposure metrics instead.
    PLATEAU_RTOL = 0.005

    def _stage(self, name: str, outcome: TuneOutcome,
               candidates: list[tuple[str, SystemConfig]]) -> SystemConfig:
        measurements = self._measure_all([cfg for _, cfg in candidates])
        outcome.measurements += len(measurements)
        measured: list[tuple[str, SystemConfig, Measurement]] = [
            (label, cfg, m)
            for (label, cfg), m in zip(candidates, measurements)
        ]
        best_ips = max(m.images_per_second for _, _, m in measured)
        plateau = [
            row for row in measured
            if row[2].images_per_second >= best_ips * (1 - self.PLATEAU_RTOL)
        ]
        # Within the plateau, minimize the *exposure risk* J: realized
        # per-iteration stall (responsiveness tail) plus serialized
        # allreduce seconds per iteration (the backlog that stops hiding
        # under backward at scale).  Both are seconds on the same
        # iteration, so the sum is dimensionally meaningful.
        def exposure(m: Measurement) -> float:
            stall = max(
                0.0,
                m.stats.mean_iteration_seconds - m.stats.compute_iteration_seconds,
            )
            iters = len(m.stats.steady_iterations)
            return stall + m.runtime_stats.allreduce_seconds / max(1, iters)

        best_label, best_cfg, _ = min(plateau, key=lambda row: exposure(row[2]))
        outcome.stages.append(
            StageResult(
                name,
                tuple(
                    (label, m.images_per_second,
                     m.runtime_stats.allreduce_seconds)
                    for label, _, m in measured
                ),
                best_label,
            )
        )
        return best_cfg

    # -- the procedure -------------------------------------------------------
    def tune(self, base: SystemConfig | None = None) -> TuneOutcome:
        """Run all four stages and return the tuned configuration."""
        current = base if base is not None else paper_default_config()
        outcome = TuneOutcome(best=current)

        current = self._stage(
            "mpi_library",
            outcome,
            [
                (name, replace(current, library=lib))
                for name, lib in sorted(MPI_LIBRARIES.items())
            ],
        )
        current = self._stage(
            "fusion_threshold",
            outcome,
            [
                (
                    f"fusion={v // (1 << 20)}MiB" if v else "fusion=off",
                    replace(current, horovod=current.horovod.with_(
                        fusion_threshold_bytes=v)),
                )
                for v in self.fusion_grid
            ],
        )
        current = self._stage(
            "cycle_time",
            outcome,
            [
                (
                    f"cycle={v * 1e3:g}ms",
                    replace(current, horovod=current.horovod.with_(
                        cycle_time_s=v)),
                )
                for v in self.cycle_grid
            ],
        )
        current = self._stage(
            "hierarchical_allreduce",
            outcome,
            [
                (
                    f"hierarchical={'on' if v else 'off'}",
                    replace(current, horovod=current.horovod.with_(
                        hierarchical_allreduce=v)),
                )
                for v in KNOBS["hierarchical_allreduce"].grid
            ],
        )
        outcome.best = current
        return outcome
