"""Declarative experiment registry.

One :class:`ExperimentSpec` per reproduced table/figure.  The spec
records the driver function, both argument sets, classification tags and
— the property the runner exploits — whether the driver accepts a
``runner=`` for parallel cached execution.

``REGISTRY`` is the only definition of both tiers: the committed
``bench_results/<id>.json`` (full) and ``bench_results/quick/<id>.json``
files are exactly what ``repro run`` writes from these kwargs, and the
``benchmarks/`` claim checks read those files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.bench import experiments as E
from repro.bench.harness import ExperimentResult
from repro.sim.units import MiB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner import Runner

__all__ = ["REGISTRY", "ExperimentSpec", "get", "ids"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to run one experiment at either scale.

    ``parallelizable`` marks drivers that accept ``runner=`` — every
    driver whose simulations are independent training points.  E2 and
    E7 run no simulation, E7b trains the npnn model rather than
    simulating a point, and E15's checkpointed and interrupted runs are
    not points, so those four stay serial.
    """

    id: str
    title: str
    fn: Callable[..., ExperimentResult]
    full_kwargs: dict = field(default_factory=dict)
    quick_kwargs: dict = field(default_factory=dict)
    tags: tuple[str, ...] = ()
    parallelizable: bool = False

    def kwargs(self, quick: bool = False) -> dict:
        """The argument set for one scale (a copy — safe to mutate)."""
        return dict(self.quick_kwargs if quick else self.full_kwargs)

    def run(self, quick: bool = False,
            runner: "Runner | None" = None) -> ExperimentResult:
        """Execute the driver; the runner is passed only where accepted."""
        kwargs = self.kwargs(quick)
        if self.parallelizable and runner is not None:
            kwargs["runner"] = runner
        return self.fn(**kwargs)

    def to_api(self) -> dict:
        """JSON-able view for the service's ``GET /v1/experiments``."""
        return {
            "id": self.id,
            "title": self.title,
            "tags": list(self.tags),
            "parallelizable": self.parallelizable,
            "variants": ["quick", "full"],
        }


_SPECS = (
    ExperimentSpec(
        "E1", "single-GPU throughput (DLv3+ vs ResNet-50)",
        E.e1_single_gpu_throughput,
        quick_kwargs={"iterations": 2},
        tags=("paper", "compute"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E2", "DLv3+ gradient tensor size distribution",
        E.e2_tensor_distribution,
        tags=("paper", "model"),
    ),
    ExperimentSpec(
        "E3", "OSU allreduce latency per MPI library",
        E.e3_osu_allreduce,
        full_kwargs={"gpus": 24},
        quick_kwargs={"gpus": 12, "iterations": 2},
        tags=("paper", "mpi"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E4", "fusion-threshold sweep",
        E.e4_fusion_sweep,
        full_kwargs={"gpus": 132, "iterations": 2,
                     "thresholds": (1 * MiB, 8 * MiB, 32 * MiB, 64 * MiB,
                                    256 * MiB)},
        quick_kwargs={"gpus": 24, "iterations": 2},
        tags=("paper", "tuning"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E5", "cycle-time sweep",
        E.e5_cycle_sweep,
        full_kwargs={"gpus": 132, "iterations": 2},
        quick_kwargs={"gpus": 24, "iterations": 2},
        tags=("paper", "tuning"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E6", "headline scaling comparison (default vs tuned)",
        E.e6_scaling_comparison,
        quick_kwargs={"gpu_counts": (1, 6, 24), "iterations": 2},
        tags=("paper", "scaling"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E7", "final mIOU (convergence model)",
        E.e7_miou,
        tags=("paper", "convergence"),
    ),
    ExperimentSpec(
        "E7b", "real npnn data-parallel training",
        E.e7_npnn_training,
        full_kwargs={"steps": 120},
        quick_kwargs={"steps": 30},
        tags=("paper", "convergence"),
    ),
    ExperimentSpec(
        "E8", "per-scale efficiency table",
        E.e8_efficiency_table,
        full_kwargs={"gpu_counts": (1, 24, 132), "iterations": 3},
        quick_kwargs={"gpu_counts": (1, 6, 24), "iterations": 2},
        tags=("paper", "scaling"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E9", "tuning-step ablation at scale",
        E.e9_ablation,
        full_kwargs={"gpus": 132, "iterations": 2},
        quick_kwargs={"gpus": 24, "iterations": 2},
        tags=("paper", "tuning"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E10", "staged tuning procedure",
        E.e10_autotune_vs_staged,
        quick_kwargs={"probe_gpus": 12, "iterations": 2, "validate": False,
                      "run_autotuner": False},
        tags=("paper", "tuning"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E11", "time to train the VOC recipe (extension)",
        E.e11_time_to_train,
        quick_kwargs={"gpu_counts": (1, 24), "iterations": 2},
        tags=("extension", "scaling"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E12", "strong vs weak scaling (extension)",
        E.e12_strong_vs_weak_scaling,
        full_kwargs={"gpu_counts": (24, 48, 96)},
        quick_kwargs={"gpu_counts": (6, 12, 24), "global_batch": 48,
                      "iterations": 2},
        tags=("extension", "scaling"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E13", "fault injection & resilience sweep (extension)",
        E.e13_fault_injection,
        full_kwargs={"gpus": 24, "iterations": 4,
                     "slowdowns": (3.0,), "flap_fractions": (0.3,)},
        quick_kwargs={"gpus": 12, "iterations": 4,
                      "slowdowns": (3.0,), "flap_fractions": (0.3,)},
        tags=("extension", "faults"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E13b", "fault injection: degraded rail (extension)",
        E.e13_degraded_rail,
        full_kwargs={"gpus": 132, "iterations": 2},
        quick_kwargs={"gpus": 48, "iterations": 2, "factors": (1.0, 0.05)},
        tags=("extension", "faults"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E14", "efficiency attribution: where the time goes (extension)",
        E.e14_efficiency_attribution,
        quick_kwargs={"gpu_counts": (6, 24), "iterations": 2},
        tags=("extension", "telemetry"),
        parallelizable=True,
    ),
    ExperimentSpec(
        "E15", "interrupt/resume determinism & checkpoint cost (extension)",
        E.e15_interrupt_resume,
        quick_kwargs={"gpus": 12, "iterations": 5, "cadences": (1,)},
        tags=("extension", "checkpoint"),
    ),
    ExperimentSpec(
        "E16", "critical-path diagnosis: span tracing (extension)",
        E.e16_critical_path,
        full_kwargs={"gpu_counts": (6, 24, 96, 132), "iterations": 2},
        quick_kwargs={"gpu_counts": (6, 24), "iterations": 2},
        tags=("extension", "trace"),
        parallelizable=True,
    ),
)

#: id -> spec, in presentation order.
REGISTRY: dict[str, ExperimentSpec] = {spec.id: spec for spec in _SPECS}


def ids() -> tuple[str, ...]:
    """All experiment ids in presentation order."""
    return tuple(REGISTRY)


def get(exp_id: str) -> ExperimentSpec:
    """Look up one spec; raises ``KeyError`` with the known ids."""
    try:
        return REGISTRY[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {', '.join(REGISTRY)}"
        ) from None
