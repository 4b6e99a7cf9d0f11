"""The paper's contribution: Horovod/MPI tuning without code changes.

The paper's method is *staged manual tuning* of runtime knobs — no
modification to Horovod, MPI, or the model:

1. **MPI library** — swap IBM Spectrum MPI for MVAPICH2-GDR (GPUDirect
   RDMA, GPU-tuned collectives);
2. **tensor fusion threshold** — sweep ``HOROVOD_FUSION_THRESHOLD``;
3. **cycle time** — sweep ``HOROVOD_CYCLE_TIME``;
4. **hierarchical allreduce** — toggle ``HOROVOD_HIERARCHICAL_ALLREDUCE``.

This package packages that methodology over the simulated system:

* :func:`~repro.core.sweep.measure_training` — the one entry point that
  builds a Summit slice, an MPI library, a Horovod runtime and a trainer,
  runs a measured job, and returns a :class:`~repro.core.sweep.Measurement`;
* :class:`~repro.core.tuner.StagedTuner` — the staged procedure itself;
* :mod:`~repro.core.knobs` — the knob registry and the paper's
  default/tuned configurations;
* :mod:`~repro.core.efficiency` — scaling curves, efficiency and speedup
  math, and the table formatting the benchmarks print.
"""

from repro.core.efficiency import ScalingCurve, ScalingPoint
from repro.core.knobs import (
    KNOBS,
    Knob,
    SystemConfig,
    paper_default_config,
    paper_tuned_config,
)
from repro.core.sweep import (
    Measurement,
    clear_profile_cache,
    measure_training,
)
from repro.core.tuner import StagedTuner, StageResult, TuneOutcome

__all__ = [
    "KNOBS",
    "Knob",
    "Measurement",
    "ScalingCurve",
    "ScalingPoint",
    "StageResult",
    "StagedTuner",
    "SystemConfig",
    "TuneOutcome",
    "clear_profile_cache",
    "measure_training",
    "paper_default_config",
    "paper_tuned_config",
]
