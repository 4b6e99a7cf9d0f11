"""Experiment drivers E1–E16 (see DESIGN.md §4 for the index).

Every driver is deterministic (seeded), returns an
:class:`~repro.bench.harness.ExperimentResult`, and accepts size
parameters so tests can run scaled-down versions while the benchmark
targets run the paper-scale configuration.

API conventions:

* parameters are keyword-only; fixed-scale drivers take ``gpus``,
  scaling-curve drivers take ``gpu_counts``, and every driver that
  simulates training takes ``seed``;
* every driver that simulates independent points (all but E2, E7,
  E7b and E15) accepts ``runner`` — a :class:`~repro.runner.Runner` —
  and resolves those points through it, so they parallelize and
  memoize for free; ``runner=None`` is an inline serial runner with no
  cache, which produces **bit-identical** results to the pre-runner
  serial code.  E10's autotuner objective and E15's interrupted runs
  still call ``measure_training`` directly (DESIGN.md §7, "What stays
  serial", says why).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.bench.harness import ExperimentResult
from repro.runner import OSUPoint, Runner, TrainPoint
from repro.core import (
    ScalingCurve,
    ScalingPoint,
    StagedTuner,
    measure_training,
    paper_default_config,
    paper_tuned_config,
)
from repro.core.sweep import model_profile
from repro.data import VOC2012_AUG, VOCMini
from repro.horovod.config import HorovodConfig
from repro.models import build_deeplabv3plus
from repro.mpi import MPI_LIBRARIES, MVAPICH2_GDR, SPECTRUM_MPI
from repro.mpi.osu import osu_allreduce
from repro.npnn import DataParallelTrainer, ParallelConfig
from repro.sim.units import KiB, MiB
from repro.train.convergence import MIOU_MODEL
from repro.train.recipe import VOCSegmentationRecipe
from repro.train.schedule import linear_scaled_lr

__all__ = [
    "e1_single_gpu_throughput",
    "e2_tensor_distribution",
    "e3_osu_allreduce",
    "e4_fusion_sweep",
    "e5_cycle_sweep",
    "e6_scaling_comparison",
    "e7_miou",
    "e7_npnn_training",
    "e8_efficiency_table",
    "e9_ablation",
    "e10_autotune_vs_staged",
    "e11_time_to_train",
    "e12_strong_vs_weak_scaling",
    "e13_degraded_rail",
    "e13_fault_injection",
    "e14_efficiency_attribution",
    "e15_interrupt_resume",
    "e16_critical_path",
]

#: The paper evaluates up to 22 nodes × 6 V100 = 132 GPUs.
PAPER_MAX_GPUS = 132
#: GPU counts for scaling curves (Summit allocations grow by nodes).
SCALING_GPUS = (1, 6, 12, 24, 48, 96, 132)


def _resolve(points, runner: Runner | None) -> list:
    """Resolve simulation points through the given (or an inline) runner."""
    return (runner if runner is not None else Runner()).run(points)


# ---------------------------------------------------------------- E1 ----
def e1_single_gpu_throughput(*, iterations: int = 3, seed: int = 0,
                             runner: Runner | None = None) -> ExperimentResult:
    """E1 — single-V100 throughput: DLv3+ 6.7 vs ResNet-50 300 img/s."""
    rows = []
    measured = {}
    paper_numbers = {"deeplab": 6.7, "resnet50": 300.0}
    results = _resolve(
        [TrainPoint(gpus=1, config=paper_default_config(), model=model,
                    iterations=iterations, jitter_std=0.0, seed=seed)
         for model in paper_numbers],
        runner,
    )
    for (model, paper_ips), m in zip(paper_numbers.items(), results):
        profile = model_profile(model)
        rows.append({
            "model": model,
            "batch": profile.batch_size,
            "paper img/s": paper_ips,
            "compute img/s": round(profile.images_per_second, 2),
            "measured img/s": round(m.images_per_second, 2),
        })
        measured[f"{model}_img_per_s"] = round(m.images_per_second, 2)
    ratio = (
        measured["resnet50_img_per_s"] / measured["deeplab_img_per_s"]
    )
    measured["throughput_ratio"] = round(ratio, 1)
    return ExperimentResult(
        experiment="E1",
        title="Single-GPU training throughput (V100)",
        rows=rows,
        paper={
            "deeplab_img_per_s": 6.7,
            "resnet50_img_per_s": 300.0,
            "throughput_ratio": 44.8,
        },
        measured=measured,
    )


# ---------------------------------------------------------------- E2 ----
def e2_tensor_distribution(*, seed: int = 0) -> ExperimentResult:
    """E2 — DLv3+ gradient tensor-size distribution (fusion motivation).

    ``seed`` is accepted for signature uniformity with the other
    drivers; the layer graph is reconstructed deterministically, so it
    has no effect.
    """
    del seed  # deterministic reconstruction; kept for API uniformity
    graph = build_deeplabv3plus()
    sizes = np.array([t.nbytes for t in graph.grad_tensors()])
    buckets = [
        ("<= 4 KiB", sizes <= 4 * KiB),
        ("4-64 KiB", (sizes > 4 * KiB) & (sizes <= 64 * KiB)),
        ("64 KiB-1 MiB", (sizes > 64 * KiB) & (sizes <= 1 * MiB)),
        ("> 1 MiB", sizes > 1 * MiB),
    ]
    rows = [
        {
            "bucket": name,
            "tensors": int(mask.sum()),
            "bytes (MiB)": round(float(sizes[mask].sum()) / MiB, 2),
            "share of bytes": f"{sizes[mask].sum() / sizes.sum() * 100:.1f}%",
        }
        for name, mask in buckets
    ]
    return ExperimentResult(
        experiment="E2",
        title="DLv3+ gradient tensor size distribution",
        rows=rows,
        paper={"tensor_count": "hundreds (model has ~41M params)"},
        measured={
            "tensor_count": len(sizes),
            "median_bytes": int(np.median(sizes)),
            "max_bytes": int(sizes.max()),
            "total_MiB": round(float(sizes.sum()) / MiB, 1),
        },
        notes="the long tail of tiny tensors is what tensor fusion amortizes",
    )


# ---------------------------------------------------------------- E3 ----
def e3_osu_allreduce(*, gpus: int = 24, iterations: int = 3,
                     sizes: tuple[int, ...] | None = None,
                     runner: Runner | None = None) -> ExperimentResult:
    """E3 — OSU-style allreduce latency vs message size per library."""
    if sizes is None:
        sizes = tuple(4 ** i for i in range(2, 14))  # 16 B .. 64 MiB
    libraries = sorted(MPI_LIBRARIES.items())
    points = [
        OSUPoint(gpus=gpus, library=lib, nbytes=nbytes, iterations=iterations)
        for nbytes in sizes
        for _name, lib in libraries
    ]
    results = iter(_resolve(points, runner))
    rows = []
    for nbytes in sizes:
        row = {"bytes": nbytes}
        for name, _lib in libraries:
            row[f"{name} (us)"] = round(next(results).latency_us, 1)
        row["GDR speedup"] = round(
            row["SpectrumMPI (us)"] / row["MVAPICH2-GDR (us)"], 2
        )
        rows.append(row)
    small = rows[0]["GDR speedup"]
    large = rows[-1]["GDR speedup"]
    return ExperimentResult(
        experiment="E3",
        title=f"OSU allreduce latency, {gpus} GPUs",
        rows=rows,
        paper={"gdr_faster_at_all_sizes": "yes (published OSU comparisons)"},
        measured={
            "gdr_faster_at_all_sizes": "yes" if min(r["GDR speedup"] for r in rows) > 1 else "no",
            "small_msg_speedup": small,
            "large_msg_speedup": large,
        },
    )


# ---------------------------------------------------------------- E4 ----
def e4_fusion_sweep(*, gpus: int = 24, iterations: int = 3,
                    thresholds: tuple[int, ...] | None = None,
                    seed: int = 0,
                    runner: Runner | None = None) -> ExperimentResult:
    """E4 — HOROVOD_FUSION_THRESHOLD sweep at fixed scale.

    Swept on both bases: under the default Spectrum library (where
    exposed communication makes fusion a first-order throughput knob at
    scale) and under the tuned MVAPICH2-GDR setup (where communication
    hides and fusion only shows in serialized allreduce time).
    """
    if thresholds is None:
        thresholds = (1 * MiB, 8 * MiB, 32 * MiB, 64 * MiB, 128 * MiB, 256 * MiB)
    bases = [("Spectrum", paper_default_config()), ("GDR", paper_tuned_config())]
    points = [
        TrainPoint(
            gpus=gpus,
            config=dataclasses.replace(
                base,
                horovod=base.horovod.with_(fusion_threshold_bytes=threshold),
            ),
            iterations=iterations, jitter_std=0.0, seed=seed,
        )
        for threshold in thresholds
        for _base_name, base in bases
    ]
    results = iter(_resolve(points, runner))
    rows = []
    for threshold in thresholds:
        row = {"fusion": f"{threshold // MiB}MiB" if threshold else "off"}
        for base_name, _base in bases:
            m = next(results)
            iters = len(m.stats.iteration_seconds)
            row[f"{base_name} img/s"] = round(m.images_per_second, 1)
            row[f"{base_name} ops/iter"] = round(
                m.runtime_stats.fused_ops / iters, 1
            )
            row[f"{base_name} allreduce ms/iter"] = round(
                m.runtime_stats.allreduce_seconds / iters * 1e3, 1
            )
        rows.append(row)
    best = max(rows, key=lambda r: r["Spectrum img/s"])
    return ExperimentResult(
        experiment="E4",
        title=f"Fusion-threshold sweep, {gpus} GPUs",
        rows=rows,
        paper={"shape": "small thresholds are worst; large thresholds amortize latency"},
        measured={
            "worst_spectrum": min(rows, key=lambda r: r["Spectrum img/s"])["fusion"],
            "best_spectrum": best["fusion"],
            "small_fusion_penalty": round(
                best["Spectrum img/s"] / rows[0]["Spectrum img/s"], 3
            ),
        },
    )


# ---------------------------------------------------------------- E5 ----
def e5_cycle_sweep(*, gpus: int = 132, iterations: int = 3,
                   cycles_ms: tuple[float, ...] = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0),
                   seed: int = 0,
                   runner: Runner | None = None) -> ExperimentResult:
    """E5 — HOROVOD_CYCLE_TIME sweep (fragmentation vs stall).

    Under the default Spectrum library (exposed, α-heavy communication),
    large cycles stall the backward tail — a large-cycle penalty.  Small
    cycles fragment fusion into more collectives, but the host-CPU cost
    that makes sub-ms cycles expensive in production Horovod is not
    modeled, so the small-cycle end is flat rather than turning over:
    the best cycle is the smallest one swept.  Under the tuned GDR setup
    the same sweep is a gentle monotone (communication hides), also
    reported.
    """
    bases = [("Spectrum", paper_default_config()), ("GDR", paper_tuned_config())]
    points = [
        TrainPoint(
            gpus=gpus,
            config=dataclasses.replace(
                base, horovod=base.horovod.with_(cycle_time_s=cycle_ms * 1e-3)
            ),
            iterations=iterations, jitter_std=0.0, seed=seed,
        )
        for cycle_ms in cycles_ms
        for _base_name, base in bases
    ]
    results = iter(_resolve(points, runner))
    rows = []
    for cycle_ms in cycles_ms:
        row = {"cycle (ms)": cycle_ms}
        for base_name, _base in bases:
            m = next(results)
            iters = len(m.stats.iteration_seconds)
            row[f"{base_name} img/s"] = round(m.images_per_second, 1)
            row[f"{base_name} ops/iter"] = round(
                m.runtime_stats.fused_ops / iters, 1
            )
            row[f"{base_name} stall ms/iter"] = round(
                max(0.0, m.stats.mean_iteration_seconds
                    - m.stats.compute_iteration_seconds) * 1e3, 1
            )
        rows.append(row)
    best = max(rows, key=lambda r: r["Spectrum img/s"])
    worst = min(rows, key=lambda r: r["Spectrum img/s"])
    return ExperimentResult(
        experiment="E5",
        title=f"Cycle-time sweep, {gpus} GPUs",
        rows=rows,
        paper={"shape": "small cycles preferred; large cycles stall the tail"},
        measured={
            "best_cycle_ms_spectrum": best["cycle (ms)"],
            "large_cycle_penalty": round(
                best["Spectrum img/s"] / worst["Spectrum img/s"], 3
            ),
        },
        notes="model limitation: the host-CPU cost that penalizes sub-ms "
              "cycles in production Horovod is not modeled, so the small-"
              "cycle end is flat here instead of turning over",
    )


# ---------------------------------------------------------------- E6 ----
def e6_scaling_comparison(*, gpu_counts: tuple[int, ...] = SCALING_GPUS,
                          iterations: int = 3,
                          jitter_std: float = 0.03,
                          seed: int = 0,
                          runner: Runner | None = None) -> ExperimentResult:
    """E6 — the headline figure: default vs tuned scaling to 132 GPUs.

    Small-scale points are cheap to simulate, so they run extra
    iterations: with per-rank compute jitter, a couple of steady
    iterations at 1 GPU would otherwise be a noisy efficiency baseline.
    """
    configs = [
        ("default (Spectrum MPI)", paper_default_config()),
        ("tuned (MVAPICH2-GDR)", paper_tuned_config()),
    ]
    points = [
        TrainPoint(
            gpus=gpus, config=cfg,
            iterations=iterations if gpus > 24 else max(iterations, 8),
            jitter_std=jitter_std, seed=seed,
        )
        for _name, cfg in configs
        for gpus in gpu_counts
    ]
    results = iter(_resolve(points, runner))
    curves = []
    for name, _cfg in configs:
        curve = ScalingCurve(name)
        for _gpus in gpu_counts:
            curve.add(ScalingPoint.from_measurement(next(results)))
        curves.append(curve)
    default, tuned = curves
    rows = []
    for gpus in gpu_counts:
        d, t = default.point(gpus), tuned.point(gpus)
        rows.append({
            "GPUs": gpus,
            "default img/s": round(d.images_per_second, 1),
            "default eff": f"{d.efficiency * 100:.1f}%",
            "tuned img/s": round(t.images_per_second, 1),
            "tuned eff": f"{t.efficiency * 100:.1f}%",
            "speedup": round(t.images_per_second / d.images_per_second, 2),
        })
    last = max(gpu_counts)
    d_eff = default.point(last).efficiency * 100
    t_eff = tuned.point(last).efficiency * 100
    return ExperimentResult(
        experiment="E6",
        title=f"Scaling comparison up to {last} GPUs (DLv3+, bs 8/GPU)",
        rows=rows,
        paper={
            "tuned_efficiency_at_132": 92.0,
            "default_efficiency_at_132": 92.0 / 1.3,
            "speedup_at_132": 1.3,
            "efficiency_gain_points": 23.9,
        },
        measured={
            "tuned_efficiency_at_132": round(t_eff, 1),
            "default_efficiency_at_132": round(d_eff, 1),
            "speedup_at_132": round(
                tuned.point(last).images_per_second
                / default.point(last).images_per_second, 2
            ),
            "efficiency_gain_points": round(t_eff - d_eff, 1),
        },
        notes="efficiency = throughput / (GPUs x calibrated 1-GPU compute throughput)",
    )


# ---------------------------------------------------------------- E7 ----
def e7_miou(*, seed: int = 0) -> ExperimentResult:
    """E7 — final accuracy: the paper's 80.8% mIOU distributed run.

    Distributed configuration: 16 GPUs × batch 8 = global batch 128 with
    the linear-scaling warmup rule, standard 45-epoch budget.
    """
    epochs = VOC2012_AUG.epochs_for_steps(30_000, 16)
    rows = []
    setups = [
        ("single-GPU baseline (B=16)", 16, True, True),
        ("distributed, LR scaled + warmup (B=128)", 128, True, True),
        ("distributed, no warmup (B=128)", 128, True, False),
    ]
    for name, batch, scaling, warmup in setups:
        miou = MIOU_MODEL.miou(epochs, batch, lr_scaling=scaling,
                               warmup=warmup, seed=seed)
        rows.append({
            "setup": name,
            "global batch": batch,
            "epochs": round(epochs, 1),
            "mIOU %": round(miou, 2),
        })
    schedule = linear_scaled_lr(
        0.007, world_size=16, max_steps=30_000 * 16 // 128,
        steps_per_epoch=VOC2012_AUG.steps_per_epoch(128),
    )
    distributed = rows[1]["mIOU %"]
    return ExperimentResult(
        experiment="E7",
        title="Final PASCAL VOC val mIOU (convergence model)",
        rows=rows,
        paper={"distributed_miou": 80.8},
        measured={
            "distributed_miou": distributed,
            "peak_lr": round(schedule.base_lr, 4),
            "warmup_steps": schedule.warmup_steps,
        },
        notes="mechanistic gradient-exactness is checked separately by the "
              "npnn trainer (e7_npnn_training)",
    )


def e7_npnn_training(*, steps: int = 120, world: int = 4,
                     seed: int = 0) -> ExperimentResult:
    """E7b — real distributed training on VOC-mini (actual compute)."""
    dataset = VOCMini(size=24, num_classes=4, seed=seed)
    trainer = DataParallelTrainer(
        dataset,
        ParallelConfig(world=world, per_replica_batch=4, width=8, lr=0.08,
                       seed=seed),
    )
    val = list(range(2000, 2048))
    initial = trainer.evaluate(val)
    rows = [{"step": 0, "loss": float("nan"), "mIOU": round(initial, 3)}]
    chunk = max(1, steps // 4)
    done = 0
    while done < steps:
        n = min(chunk, steps - done)
        trainer.train(n)
        done += n
        rows.append({
            "step": done,
            "loss": round(trainer.history[-1].mean_loss, 3),
            "mIOU": round(trainer.evaluate(val), 3),
        })
    return ExperimentResult(
        experiment="E7b",
        title=f"Real npnn data-parallel training, {world} replicas (VOC-mini)",
        rows=rows,
        paper={"replicas_bitwise_in_sync": "required by sync SGD"},
        measured={
            "replicas_bitwise_in_sync": "yes" if trainer.replicas_in_sync() else "NO",
            "initial_miou": round(initial, 3),
            "final_miou": rows[-1]["mIOU"],
        },
    )


# ---------------------------------------------------------------- E8 ----
def e8_efficiency_table(*, e6: ExperimentResult | None = None,
                        runner: Runner | None = None,
                        **kwargs) -> ExperimentResult:
    """E8 — per-scale efficiency/speedup table derived from E6."""
    if e6 is None:
        e6 = e6_scaling_comparison(runner=runner, **kwargs)
    rows = []
    for row in e6.rows:
        d_eff = float(row["default eff"].rstrip("%"))
        t_eff = float(row["tuned eff"].rstrip("%"))
        rows.append({
            "GPUs": row["GPUs"],
            "default eff": row["default eff"],
            "tuned eff": row["tuned eff"],
            "gain (points)": round(t_eff - d_eff, 1),
            "tuned/default": row["speedup"],
        })
    return ExperimentResult(
        experiment="E8",
        title="Scaling efficiency and tuning gain per scale",
        rows=rows,
        paper=e6.paper,
        measured=e6.measured,
    )


# ---------------------------------------------------------------- E9 ----
def e9_ablation(*, gpus: int = PAPER_MAX_GPUS, iterations: int = 3,
                jitter_std: float = 0.03, seed: int = 0,
                runner: Runner | None = None) -> ExperimentResult:
    """E9 — which tuning step buys what, at full scale."""
    tuned = paper_tuned_config()
    default = paper_default_config()
    variants = [
        ("default", default),
        ("default + MVAPICH2-GDR only", dataclasses.replace(
            default, library=MVAPICH2_GDR)),
        ("default + fp16 compression", dataclasses.replace(
            default, horovod=default.horovod.with_(compression="fp16"))),
        ("tuned - hierarchical", dataclasses.replace(
            tuned, horovod=tuned.horovod.with_(hierarchical_allreduce=False))),
        ("tuned - GDR (Spectrum + tuned knobs)", dataclasses.replace(
            tuned, library=SPECTRUM_MPI)),
        ("tuned (all steps)", tuned),
        ("tuned + fp16 compression", dataclasses.replace(
            tuned, horovod=tuned.horovod.with_(compression="fp16"))),
    ]
    measurements = _resolve(
        [TrainPoint(gpus=gpus, config=cfg, iterations=iterations,
                    jitter_std=jitter_std, seed=seed)
         for _name, cfg in variants],
        runner,
    )
    rows = []
    for (name, _cfg), m in zip(variants, measurements):
        rows.append({
            "configuration": name,
            "img/s": round(m.images_per_second, 1),
            "efficiency": f"{m.scaling_efficiency * 100:.1f}%",
        })
    by_name = {r["configuration"]: r["img/s"] for r in rows}
    default_ips = by_name["default"]
    return ExperimentResult(
        experiment="E9",
        title=f"Tuning-step ablation at {gpus} GPUs",
        rows=rows,
        paper={"default_is_the_unique_poor_config": "yes"},
        measured={
            "default_is_the_unique_poor_config": "yes"
            if all(
                ips > 1.1 * default_ips
                for name, ips in by_name.items()
                if name != "default"
            )
            else "no",
            "gdr_only_gain": round(
                by_name["default + MVAPICH2-GDR only"] / default_ips, 2
            ),
            "knobs_only_gain": round(
                by_name["tuned - GDR (Spectrum + tuned knobs)"] / default_ips, 2
            ),
            "full_tuning_gain": round(
                by_name["tuned (all steps)"] / default_ips, 2
            ),
        },
        notes="in this model either escape route — the GDR library swap or "
              "the hierarchical/fusion knob changes — recovers near-linear "
              "scaling; the default configuration is poor because it has "
              "neither",
    )


# ---------------------------------------------------------------- E10 ----
def e10_autotune_vs_staged(*, probe_gpus: int = 24,
                           validate_gpus: int = PAPER_MAX_GPUS,
                           iterations: int = 3,
                           validate: bool = True,
                           run_autotuner: bool = True,
                           seed: int = 0,
                           runner: Runner | None = None) -> ExperimentResult:
    """E10 — staged manual tuning vs Horovod's runtime autotuner.

    The paper's method is the staged procedure; Horovod also ships an
    autotuner (``HOROVOD_AUTOTUNE``) that perturbs the same knobs at
    runtime.  Both search the same grids here against the same simulated
    objective; the comparison shows the staged procedure reaches an
    equivalent configuration in comparable (or fewer) measurements —
    which is the paper's justification for not modifying Horovod.
    """
    from repro.horovod.autotune import Autotuner
    from repro.mpi.libraries import MVAPICH2_GDR

    fusion_grid = (1 * MiB, 32 * MiB, 128 * MiB)
    cycle_grid = (1e-3, 5e-3, 25e-3)
    tuner = StagedTuner(
        probe_gpus=probe_gpus,
        iterations=iterations,
        fusion_grid=fusion_grid,
        cycle_grid=cycle_grid,
        seed=seed,
        runner=runner,
    )
    outcome = tuner.tune()
    rows = [
        {
            "method": "staged",
            "stage": s.stage,
            "candidates": len(s.candidates),
            "chosen": s.chosen,
        }
        for s in outcome.stages
    ]
    measured = {
        "staged_choice": outcome.best.label,
        "staged_measurements": outcome.measurements,
    }
    notes = outcome.report()

    if run_autotuner:
        # Horovod's autotuner runs per-process: it can vary the HOROVOD_*
        # knobs but not the MPI library underneath, so it starts from the
        # already-GDR setup (as it would inside an MVAPICH2-GDR job).
        base = dataclasses.replace(paper_default_config(), library=MVAPICH2_GDR)

        def objective(hvd_cfg: HorovodConfig) -> float:
            m = measure_training(
                probe_gpus,
                dataclasses.replace(base, horovod=hvd_cfg),
                iterations=iterations,
                jitter_std=0.0,
            )
            # Same composite the staged tuner effectively uses: throughput
            # minus the exposure risk (in img/s-equivalent units).
            stall = max(
                0.0,
                m.stats.mean_iteration_seconds
                - m.stats.compute_iteration_seconds,
            )
            iters = len(m.stats.steady_iterations)
            backlog = m.runtime_stats.allreduce_seconds / max(1, iters)
            return m.images_per_second - (stall + backlog) * 10.0

        auto = Autotuner(cycle_grid=cycle_grid, fusion_grid=fusion_grid)
        auto_result = auto.run(objective, base=base.horovod)
        rows.append({
            "method": "autotune",
            "stage": "(coordinate descent)",
            "candidates": auto_result.evaluations,
            "chosen": auto_result.best_config.describe(),
        })
        measured["autotune_choice"] = auto_result.best_config.describe()
        measured["autotune_measurements"] = auto_result.evaluations

    if validate:
        m_pick, m_hand = _resolve(
            [TrainPoint(gpus=validate_gpus, config=outcome.best,
                        iterations=iterations, jitter_std=0.03, seed=seed),
             TrainPoint(gpus=validate_gpus, config=paper_tuned_config(),
                        iterations=iterations, jitter_std=0.03, seed=seed)],
            runner,
        )
        measured["tuner_pick_eff_at_scale"] = round(
            m_pick.scaling_efficiency * 100, 1
        )
        measured["hand_tuned_eff_at_scale"] = round(
            m_hand.scaling_efficiency * 100, 1
        )
    return ExperimentResult(
        experiment="E10",
        title="Staged tuning vs runtime autotuning",
        rows=rows,
        paper={"tuning_without_code_changes_reaches_~92%": 92.0},
        measured=measured,
        notes=notes,
    )


# ---------------------------------------------------------------- E11 ----
def e11_time_to_train(*, gpu_counts: tuple[int, ...] = (1, 24, 132),
                      iterations: int = 3,
                      jitter_std: float = 0.03, seed: int = 0,
                      runner: Runner | None = None) -> ExperimentResult:
    """E11 (extension) — wall-clock time to the standard VOC recipe.

    Not a table from the paper: this derives what the tuning *buys in
    practice* by combining measured throughput (E6 machinery), the
    constant-epoch DeepLab recipe, and the convergence model — hours of
    Summit time per trained model, default vs tuned, plus the predicted
    final mIOU at each global batch.
    """
    recipe = VOCSegmentationRecipe()
    configs = (("default", paper_default_config()),
               ("tuned", paper_tuned_config()))
    results = iter(_resolve(
        [TrainPoint(gpus=gpus, config=cfg, iterations=iterations,
                    jitter_std=jitter_std, seed=seed)
         for gpus in gpu_counts
         for _name, cfg in configs],
        runner,
    ))
    rows = []
    for gpus in gpu_counts:
        row = {"GPUs": gpus, "global batch": gpus * recipe.per_gpu_batch,
               "steps": recipe.steps_at(gpus)}
        for name, _cfg in configs:
            m = next(results)
            outcome = recipe.outcome(gpus, m.images_per_second)
            row[f"{name} hours"] = round(outcome.wall_hours, 2)
            if name == "tuned":
                row["predicted mIOU %"] = round(outcome.predicted_miou, 1)
        row["hours saved"] = round(row["default hours"] - row["tuned hours"], 2)
        rows.append(row)
    last = rows[-1]
    return ExperimentResult(
        experiment="E11",
        title="Time to train the standard VOC recipe (extension)",
        rows=rows,
        paper={"note": "derived extension, not a paper table"},
        measured={
            "single_gpu_hours": rows[0]["tuned hours"],
            "max_scale_tuned_hours": last["tuned hours"],
            "max_scale_hours_saved": last["hours saved"],
        },
        notes="constant-epoch scaling: same optimization work at every "
              "scale; accuracy at large batch priced by the convergence "
              "model",
    )


# ---------------------------------------------------------------- E12 ----
def e12_strong_vs_weak_scaling(*,
                               gpu_counts: tuple[int, ...] = (6, 12, 24, 48, 96),
                               global_batch: int = 96,
                               iterations: int = 3, seed: int = 0,
                               runner: Runner | None = None) -> ExperimentResult:
    """E12 (extension) — strong vs weak scaling of the tuned setup.

    The paper scales *weakly* (fixed batch 8 per GPU).  This extension
    contrasts that with *strong* scaling at a fixed global batch: the
    per-GPU batch shrinks with scale, so launch overheads amortize less
    and communication gets less backward time to hide under.  Finding:
    DLv3+ is so compute-heavy per image that it strong-scales gracefully
    down to batch 1 (a few percent off weak scaling) — the wall sits
    below one image per GPU.
    """
    cfg = paper_tuned_config()
    weak_batch = 8
    for gpus in gpu_counts:
        if global_batch % gpus:
            raise ValueError(
                f"global_batch {global_batch} not divisible by {gpus} GPUs"
            )
    results = iter(_resolve(
        [TrainPoint(gpus=gpus, config=cfg, per_gpu_batch=batch,
                    iterations=iterations, jitter_std=0.0, seed=seed)
         for gpus in gpu_counts
         for batch in (weak_batch, global_batch // gpus)],
        runner,
    ))
    rows = []
    for gpus in gpu_counts:
        strong_batch = global_batch // gpus
        weak = next(results)
        strong = next(results)
        rows.append({
            "GPUs": gpus,
            "weak img/s (bs8/GPU)": round(weak.images_per_second, 1),
            "weak eff": f"{weak.scaling_efficiency * 100:.1f}%",
            f"strong img/s (G={global_batch})": round(
                strong.images_per_second, 1
            ),
            "strong bs/GPU": strong_batch,
            "strong iter (ms)": round(
                strong.stats.mean_iteration_seconds * 1e3, 1
            ),
        })
    first, last = rows[0], rows[-1]
    strong_col = f"strong img/s (G={global_batch})"
    strong_speedup = last[strong_col] / first[strong_col]
    ideal = gpu_counts[-1] / gpu_counts[0]
    return ExperimentResult(
        experiment="E12",
        title=f"Strong vs weak scaling (tuned config, global batch {global_batch})",
        rows=rows,
        paper={"note": "extension; the paper reports weak scaling only"},
        measured={
            "weak_eff_at_max": last["weak eff"],
            "strong_speedup": round(strong_speedup, 2),
            "ideal_speedup": round(ideal, 1),
            "strong_scaling_efficiency": round(strong_speedup / ideal * 100, 1),
        },
        notes="DLv3+ strong-scales gracefully to batch 1 per GPU: its "
              "per-image compute dwarfs both launch overheads and "
              "communication",
    )


# ---------------------------------------------------------------- E13 ----
def e13_degraded_rail(*, gpus: int = 132, iterations: int = 3,
                      factors: tuple[float, ...] = (1.0, 0.25, 0.05, 0.01),
                      seed: int = 0,
                      runner: Runner | None = None) -> ExperimentResult:
    """E13 (extension) — fault injection: one slow InfiniBand rail.

    Synchronous data parallelism is gated by its slowest participant.
    Degrading a single node's rail (flapping link, mis-seated cable)
    slows every allreduce that crosses it; this measures how gracefully
    the tuned configuration absorbs partial-bandwidth faults.
    """
    from repro.faults import DegradedRail, FaultSchedule

    cfg = paper_tuned_config()

    def rail(factor: float) -> FaultSchedule | None:
        if factor >= 1.0:
            return None
        # Node 0's rail 0 (NIC to leaf switch), degraded from t=0 for
        # the whole run: the window must outlast the slowest degraded
        # run, or the rail would heal mid-run and the row would measure
        # a partial fault.  The slowest full-tier run (1% rail at 132
        # GPUs, ~3.2 s per iteration) ends about 10 s into simulated
        # time, so a 1e6 s window never closes inside a measurement.
        return FaultSchedule.of(DegradedRail(
            link=("nic:0:0", "switch:-1:1"), start_s=0.0,
            duration_s=1e6, factor=factor,
        ))

    results = _resolve(
        [TrainPoint(gpus=gpus, config=cfg, iterations=iterations,
                    jitter_std=0.0, seed=seed, schedule=rail(factor))
         for factor in factors],
        runner,
    )
    rows = []
    for factor, m in zip(factors, results):
        rows.append({
            "rail bandwidth": f"{factor * 100:g}%",
            "img/s": round(m.images_per_second, 1),
            "efficiency": f"{m.scaling_efficiency * 100:.1f}%",
            "iter (ms)": round(m.stats.mean_iteration_seconds * 1e3, 1),
        })
    healthy = rows[0]["img/s"]
    by_factor = {f: row["img/s"] for f, row in zip(factors, rows)}
    return ExperimentResult(
        experiment="E13b",
        title=f"Fault injection: one degraded EDR rail, {gpus} GPUs",
        rows=rows,
        paper={"note": "extension; not a paper experiment"},
        measured={
            f"retained_at_{int(f * 100)}pct_rail": round(ips / healthy, 3)
            for f, ips in by_factor.items() if f < 1.0
        },
        notes="communication hidden under backward absorbs even a 20x "
              "single-rail degradation; only near-total rail loss gates "
              "the synchronous allreduce",
    )


def e13_fault_injection(*, gpus: int = 48, iterations: int = 6,
                        slowdowns: tuple[float, ...] = (1.5, 3.0),
                        flap_fractions: tuple[float, ...] = (0.1, 0.3),
                        crash_at_fraction: float = 0.4,
                        seed: int = 0,
                        runner: Runner | None = None) -> ExperimentResult:
    """E13 (extension) — scheduled fault injection & resilience sweep.

    Runs the tuned configuration through declarative fault schedules
    (:mod:`repro.faults`): straggler GPUs at several slowdowns, a
    flapping EDR rail at several duty cycles, a mid-run rank crash
    absorbed by the elastic failure detector, and the combination of all
    three.  Each row reports throughput retained relative to the
    fault-free run; crash rows also report the *delivered* retention
    (scaled to the surviving world size) and how long ranks sat under
    suspicion before the communicator shrank.
    """
    from repro.faults import (
        FaultSchedule,
        LinkFlap,
        RankCrash,
        StragglerGPU,
    )

    cfg = paper_tuned_config()
    # The fault windows are scaled to the baseline's iteration time, so
    # the baseline is a batch of its own ahead of the scenarios.
    (baseline,) = _resolve(
        [TrainPoint(gpus=gpus, config=cfg, iterations=iterations,
                    jitter_std=0.0, seed=seed)],
        runner,
    )
    t_iter = baseline.stats.mean_iteration_seconds
    span = t_iter * iterations
    rail = ("nic:0:0", "switch:-1:1")
    # Detector tuning: the deadline must exceed healthy submission skew
    # (zero here) but catch a crash well within one iteration.
    detector = dataclasses.replace(cfg, horovod=cfg.horovod.with_(
        negotiation_deadline_s=max(4 * cfg.horovod.cycle_time_s, 0.2 * t_iter),
        suspect_retries=1,
    ))

    scenarios: list[tuple[str, FaultSchedule | None, object]] = [
        ("baseline", None, cfg)
    ]
    for slowdown in slowdowns:
        scenarios.append((
            f"straggler x{slowdown:g}",
            FaultSchedule.of(StragglerGPU(
                rank=1, start_s=t_iter, duration_s=2 * t_iter,
                slowdown=slowdown,
            )),
            cfg,
        ))
    for frac in flap_fractions:
        scenarios.append((
            f"rail flap {frac * 100:g}%",
            FaultSchedule.of(LinkFlap(
                link=rail, start_s=t_iter, duration_s=span,
                period_s=t_iter, down_s=frac * t_iter,
            )),
            cfg,
        ))
    crash_at = crash_at_fraction * span
    scenarios.append((
        "rank crash",
        FaultSchedule.of(RankCrash(rank=gpus - 1, start_s=crash_at)),
        detector,
    ))
    scenarios.append((
        "straggler+flap+crash",
        FaultSchedule.of(
            StragglerGPU(rank=1, start_s=t_iter, duration_s=2 * t_iter,
                         slowdown=max(slowdowns)),
            LinkFlap(link=rail, start_s=t_iter, duration_s=span,
                     period_s=t_iter, down_s=max(flap_fractions) * t_iter),
            RankCrash(rank=gpus - 1, start_s=crash_at),
        ),
        detector,
    ))

    faulted = iter(_resolve(
        [TrainPoint(gpus=gpus, config=scen_cfg, iterations=iterations,
                    jitter_std=0.0, seed=seed, schedule=schedule)
         for _label, schedule, scen_cfg in scenarios if schedule is not None],
        runner,
    ))
    rows = []
    measured: dict[str, float] = {}
    for label, schedule, _scen_cfg in scenarios:
        m = baseline if schedule is None else next(faulted)
        report = m.fault_report or {}
        survivors = report.get("surviving_ranks", gpus)
        retained = m.images_per_second / baseline.images_per_second
        delivered = retained * survivors / gpus
        rows.append({
            "scenario": label,
            "img/s": round(m.images_per_second, 1),
            "iter (ms)": round(m.stats.mean_iteration_seconds * 1e3, 1),
            "retained": f"{retained * 100:.1f}%",
            "delivered": f"{delivered * 100:.1f}%",
            "survivors": survivors,
            "suspect (ms)": round(report.get("suspect_seconds", 0.0) * 1e3, 1),
            "retries": report.get("transfer_retries", 0),
        })
        key = label.replace(" ", "_").replace("%", "pct").replace("+", "_")
        measured[f"retained_{key}"] = round(retained, 3)
    return ExperimentResult(
        experiment="E13",
        title=f"Fault injection & resilience sweep, {gpus} GPUs",
        rows=rows,
        paper={"note": "extension; not a paper experiment"},
        measured=measured,
        notes="stragglers are suspected but never evicted (the detector "
              "clears them when they catch up); a confirmed crash shrinks "
              "the communicator and the survivors keep training; flapped "
              "rails are absorbed by transfer retry with backoff",
    )


def e14_efficiency_attribution(
    *,
    gpu_counts: tuple[int, ...] = (6, 24, 96, 132),
    iterations: int = 4,
    seed: int = 0,
    runner: Runner | None = None,
) -> ExperimentResult:
    """E14 (extension) — where does the efficiency go?

    Runs the default and tuned configurations at each GPU count with
    span tracing and folds every steady-state iteration's critical path
    (:mod:`repro.trace.critical`) into buckets that sum to wall time:
    compute, input stall, straggler skew, exposed communication,
    fusion/cycle wait, and fault-suspect stall.  The per-bucket
    default-vs-tuned delta is the paper's efficiency claim (70% → 92% at
    132 GPUs) *explained*: tuning must shrink the exposed communication
    + fusion-wait share, not just the headline number.
    """
    from repro.trace import BUCKETS, explain_measurement

    configs = (("default", paper_default_config()),
               ("tuned", paper_tuned_config()))
    results = iter(_resolve(
        [TrainPoint(gpus=gpus, config=cfg, iterations=iterations,
                    seed=seed, trace="spans")
         for gpus in gpu_counts
         for _name, cfg in configs],
        runner,
    ))
    rows = []
    measured: dict[str, float] = {}
    worst_sum_error = 0.0
    for gpus in gpu_counts:
        overheads = {}
        for name, cfg in configs:
            m = next(results)
            rep = explain_measurement(m)
            shares = rep.shares()
            worst_sum_error = max(worst_sum_error, rep.max_sum_error)
            overheads[name] = rep.overhead_share()
            row = {
                "gpus": gpus,
                "config": name,
                "iter (ms)": round(rep.mean_wall_s * 1e3, 1),
                "efficiency": f"{m.scaling_efficiency * 100:.1f}%",
            }
            for bucket in BUCKETS:
                row[bucket] = f"{shares[bucket] * 100:.1f}%"
            row["sum err"] = f"{rep.max_sum_error * 100:.2f}%"
            rows.append(row)
            measured[f"overhead_share_{name}_{gpus}"] = round(
                overheads[name], 4
            )
            if gpus == PAPER_MAX_GPUS:
                measured[f"{name}_efficiency_132gpu"] = round(
                    m.scaling_efficiency, 3
                )
        measured[f"overhead_delta_{gpus}"] = round(
            overheads["default"] - overheads["tuned"], 4
        )
    measured["max_bucket_sum_error"] = round(worst_sum_error, 6)
    return ExperimentResult(
        experiment="E14",
        title="Efficiency attribution: default vs tuned "
              f"at {', '.join(str(g) for g in gpu_counts)} GPUs",
        rows=rows,
        paper={"tuned_efficiency_132gpu": 0.92,
               "default_efficiency_132gpu": 0.70},
        measured=measured,
        notes="buckets are a critical-path decomposition of the marking "
              "rank's iteration and sum to wall time by construction; "
              "tuning's win shows up as the exposed_comm + fusion_wait "
              "share collapsing while compute share rises",
    )


def e15_interrupt_resume(
    *,
    gpus: int = 24,
    iterations: int = 8,
    kill_fraction: float = 0.6,
    cadences: tuple[int, ...] = (1, 2),
    seed: int = 0,
) -> ExperimentResult:
    """E15 (extension) — interrupt/resume determinism and checkpoint cost.

    The crash-safety claim, measured: a tuned-config run is killed
    mid-flight (:class:`~repro.faults.ProcessKill` at ``kill_fraction``
    of the baseline wall time) while checkpointing every ``cadence``
    iteration boundaries; the captured
    :class:`~repro.checkpoint.TrainCheckpoint` is then resumed and the
    completed run compared against an uninterrupted baseline.  The gate
    is **bit-identical** equality of the full ``TrainStats`` payload
    (pickle bytes, not approximate throughput), plus the cost axes a
    checkpoint cadence trades off: work redone after the kill (the
    iterations between the last capture and the interrupt) and the
    serialized checkpoint size.
    """
    import pickle

    from repro.checkpoint import (
        CheckpointPlan,
        dumps_checkpoint,
        resume_training,
    )
    from repro.faults import FaultSchedule, ProcessKill

    cfg = paper_tuned_config()
    baseline = measure_training(gpus, cfg, iterations=iterations, seed=seed)
    baseline_blob = pickle.dumps(baseline.stats)
    wall_s = sum(baseline.stats.iteration_seconds)
    kill_at = kill_fraction * wall_s

    rows = []
    measured: dict[str, float] = {}
    all_identical = True
    for cadence in cadences:
        interrupted = measure_training(
            gpus, cfg, iterations=iterations, seed=seed,
            schedule=FaultSchedule.of(ProcessKill(start_s=kill_at)),
            checkpoint=CheckpointPlan(every=cadence),
        )
        if not interrupted.interrupted or interrupted.checkpoint is None:
            raise RuntimeError(
                f"E15 setup failed: kill at {kill_at:.3f}s did not leave a "
                f"resumable checkpoint (cadence {cadence})"
            )
        boundary = interrupted.checkpoint.boundary
        resumed = resume_training(interrupted.checkpoint)
        identical = pickle.dumps(resumed.stats) == baseline_blob
        all_identical = all_identical and identical
        redone = (iterations - boundary) / iterations
        ckpt_bytes = len(dumps_checkpoint(interrupted.checkpoint))
        rows.append({
            "cadence": cadence,
            "killed at": f"{kill_fraction * 100:.0f}% wall",
            "boundary": boundary,
            "resumed it": iterations - boundary,
            "bit identical": "yes" if identical else "NO",
            "redone": f"{redone * 100:.1f}%",
            "ckpt (KiB)": round(ckpt_bytes / 1024, 1),
        })
        measured[f"bit_identical_every_{cadence}"] = float(identical)
        measured[f"redone_fraction_every_{cadence}"] = round(redone, 4)
        measured[f"checkpoint_bytes_every_{cadence}"] = float(ckpt_bytes)
    measured["bit_identical_all"] = float(all_identical)
    return ExperimentResult(
        experiment="E15",
        title=f"Interrupt/resume determinism, {gpus} GPUs × "
              f"{iterations} iterations",
        rows=rows,
        paper={"note": "extension; not a paper experiment"},
        measured=measured,
        notes="a resumed run replays nothing: the checkpoint restores the "
              "simulation clock, runtime/fabric/comm counters, per-rank "
              "RNG state, the timeline and the span recorder, so the "
              "completed stats are byte-for-byte those of the "
              "uninterrupted run; denser cadences shrink redone work at "
              "the cost of more capture points",
    )


def e16_critical_path(
    *,
    gpu_counts: tuple[int, ...] = (6, 24, 96, 132),
    iterations: int = 2,
    seed: int = 0,
    runner: Runner | None = None,
) -> ExperimentResult:
    """E16 (extension) — the simulated critical path, span by span.

    Runs default and tuned configurations at each GPU count with
    link-level span tracing, walks each run's dependency DAG into the
    exact simulated critical path (:mod:`repro.trace.critical`), and
    reports the path's composition: how much of the marking rank's wall
    time is exposed allreduce dwell, which phase/link/rank the path sits
    on longest, and per-span slack.  The headline claim is E14's
    efficiency story at span granularity — tuning collapses the exposed
    allreduce *critical-path share* at 132 GPUs, not just the aggregate
    overhead bucket.  The buckets are reconciled against wall time: the
    worst |Σ bucket totals − mean wall| is a measured key (it must sit
    at float tolerance — the path tiles each iteration).
    """
    from repro.trace import explain_measurement

    configs = (("default", paper_default_config()),
               ("tuned", paper_tuned_config()))
    results = iter(_resolve(
        [TrainPoint(gpus=gpus, config=cfg, iterations=iterations,
                    seed=seed, trace="links")
         for gpus in gpu_counts
         for _name, cfg in configs],
        runner,
    ))
    rows = []
    measured: dict[str, float] = {}
    worst_reconcile = 0.0
    shares_at_max: dict[str, float] = {}
    summary_report = None
    for gpus in gpu_counts:
        for name, _cfg in configs:
            m = next(results)
            rep = explain_measurement(m)
            worst_reconcile = max(
                worst_reconcile,
                abs(sum(rep.totals().values()) - rep.mean_wall_s),
            )
            share = rep.exposed_allreduce_share
            dwell = rep.dwell_by_phase()
            rows.append({
                "gpus": gpus,
                "config": name,
                "path (ms)": round(rep.mean_path_s * 1e3, 1),
                "wall (ms)": round(rep.mean_wall_s * 1e3, 1),
                "allreduce share": f"{share * 100:.2f}%",
                "top dwell": dwell[0][0] if dwell else "—",
                "path err": f"{rep.max_sum_error * 1e3:.3f}ms",
            })
            measured[f"allreduce_cp_share_{name}_{gpus}"] = round(share, 4)
            if gpus == PAPER_MAX_GPUS:
                shares_at_max[name] = share
            if name == "default":
                summary_report = rep  # default at the largest count wins
    measured["max_reconcile_error_s"] = round(worst_reconcile, 9)
    if PAPER_MAX_GPUS in gpu_counts:
        measured["allreduce_share_drop"] = round(
            shares_at_max["default"] - shares_at_max["tuned"], 4
        )
    return ExperimentResult(
        experiment="E16",
        title="Critical-path diagnosis: default vs tuned "
              f"at {', '.join(str(g) for g in gpu_counts)} GPUs",
        rows=rows,
        paper={"note": "extension; not a paper experiment"},
        measured=measured,
        notes="the critical path is recovered from the span DAG of the "
              "marking (slowest) rank's iterations: backward-pass dwell, "
              "straggler skew, then exposed allreduce segments walked "
              "between last gradient emission and the optimizer barrier; "
              "it reconciles with the E14 attribution buckets because "
              "both decompositions visit the same simulated instants",
        trace_summary=(summary_report.trace_summary()
                       if summary_report is not None else None),
    )
