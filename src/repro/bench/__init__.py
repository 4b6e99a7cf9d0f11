"""Benchmark harness: one driver per paper table/figure.

Each experiment ``E1``–``E16`` in DESIGN.md has a driver in
:mod:`repro.bench.experiments` that runs the simulation, returns an
:class:`~repro.bench.harness.ExperimentResult` (structured rows +
paper-vs-measured summary), and can render itself as the table/series the
paper reports.  :data:`~repro.bench.registry.REGISTRY` is the only
definition of each experiment's full and quick tier; ``repro run`` saves
them as ``bench_results/<id>.json`` and ``bench_results/quick/<id>.json``,
both committed, so ``git diff`` after a run shows any moved output.  The
``benchmarks/`` targets are claim checks over the committed full tier:
they assert the reproduced *shape* (who wins, by roughly what factor).
"""

from repro.bench.harness import (
    SCHEMA_VERSION,
    ExperimentResult,
    format_rows,
    load_result,
    save_result,
)
from repro.bench.plots import ascii_chart, chart_result
from repro.bench import experiments
from repro.bench.registry import REGISTRY, ExperimentSpec

__all__ = [
    "REGISTRY",
    "SCHEMA_VERSION",
    "ExperimentResult",
    "ExperimentSpec",
    "ascii_chart",
    "chart_result",
    "experiments",
    "format_rows",
    "load_result",
    "save_result",
]
