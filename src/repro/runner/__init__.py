"""Parallel cached experiment runner.

The paper's contribution is a *sweep* — knob grids × MPI libraries × GPU
counts — and every point in it is an independent, deterministic
simulation.  This package makes the sweep layer exploit that:

* :class:`~repro.runner.simpoint.SimPoint` /
  :class:`~repro.runner.simpoint.TrainPoint` /
  :class:`~repro.runner.simpoint.OSUPoint` — fully-specified simulation
  points whose canonical content hash doubles as a cache key;
* :class:`~repro.runner.cache.ResultCache` — persistent
  content-addressed store under ``bench_results/.cache/`` with an LRU
  size cap (``repro cache stats`` / ``repro cache clear`` on the CLI);
* :class:`~repro.runner.pool.Runner` — the one batch front-end
  (``run(points, *, timeout_s=None, retries=None, progress=None)``):
  deterministic input-order merge, batch dedup, cache lookup, progress
  callbacks, :mod:`repro.telemetry` counters and one terminal
  ``RunnerError``.  Its misses run inline or across a self-healing
  process pool (per-point watchdog timeouts, worker-crash detection
  with pool respawn and isolation replay, bounded retry with
  exponential backoff); :class:`~repro.fabric.runner.FabricRunner`
  subclasses it to run them on a fleet of pull-workers instead;
* :class:`~repro.runner.journal.RunJournal` — append-only JSONL event
  log under ``bench_results/`` that makes ``repro run all --resume``
  replay only the experiments a crashed or interrupted sweep left
  unfinished.

The sweep-shaped experiment drivers (E3–E6, E8–E12, E14, E16), the
staged tuner and ``repro run --parallel`` all execute through here;
serial, parallel and warm-cache runs return bit-identical results.
"""

from repro.runner.backend import ExecutionBackend, ProgressFn
from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    DEFAULT_MAX_BYTES,
    CacheStats,
    ResultCache,
)
from repro.runner.journal import DEFAULT_JOURNAL_PATH, RunJournal
from repro.runner.pool import Runner, RunnerError, RunnerStats
from repro.runner.simpoint import OSUPoint, SimPoint, TrainPoint, cache_salt

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_JOURNAL_PATH",
    "DEFAULT_MAX_BYTES",
    "CacheStats",
    "ExecutionBackend",
    "OSUPoint",
    "ProgressFn",
    "ResultCache",
    "RunJournal",
    "Runner",
    "RunnerError",
    "RunnerStats",
    "SimPoint",
    "TrainPoint",
    "cache_salt",
]
