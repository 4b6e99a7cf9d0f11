"""Wall-clock benchmark of the reproduction: simulator core and platform.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Workloads and their checks are described in ``workloads.py``.  A run:

1. times set-up ``SETUP_REPS`` times — a fresh interpreter importing the
   workload's modules, then the in-process fixture (service, worker
   fleet, ...) built from scratch — and reports the median;
2. builds the fixture once more, runs one untimed warm-up op, then ops
   back to back (a closed loop, one caller) until ``--seconds`` have
   passed, with at least ``MIN_TIMED_OPS`` timed ops;
3. verifies outputs: every op checks its own results, and an untimed
   final check re-executes sampled work inline and compares bytes.

Every timed region is bracketed by host-speed calibrations
(``calibrate.py``) and reported in *reference seconds*: wall seconds
scaled to a host on which the calibration loop takes
``calibrate.REFERENCE_CAL_S``.  The summary line before the result
also gives the raw wall-second median.

The last line of standard output is one JSON object.  With ``--trace 0``
it holds the end-to-end metrics: ``op_s`` (median reference seconds per
op), ``setup_s`` (median reference seconds of set-up) and
``peak_rss_mib`` (peak resident set of this process, which hosts the
simulator, the service or the fabric coordinator).  With ``--trace 1``
the ops run under the per-layer profiler (``layers.py``) and the metrics
are per-op layer times and work counts, plus ``traced_op_s``, whose
ratio to ``op_s`` is the tracing overhead.

Exits 2 without a result when the package under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
MIN_TIMED_OPS = 3


class Stopwatch:
    """Times regions in wall and reference seconds.

    Each region is bracketed by calibrations (shared between
    neighbouring regions) and scaled by the reference duration over the
    mean of its two brackets.  A ``profile`` (``layers.LayerProfile``)
    records the timed regions only.
    """

    def __init__(self, calibrator, profile=None) -> None:
        self.calibrator = calibrator
        self.profile = profile
        self.cal = calibrator.measure()

    def time(self, fn, *args):
        """Run ``fn(*args)``; returns (its result, wall s, reference s)."""
        from calibrate import REFERENCE_CAL_S

        gc.collect()
        if self.profile is not None:
            self.profile.enable()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        if self.profile is not None:
            self.profile.disable()
        after = self.calibrator.measure()
        scaled = wall * REFERENCE_CAL_S / ((self.cal + after) / 2)
        self.cal = after
        return result, wall, scaled


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(cls, work: Path, seed: int, calibrator) -> float:
    """Median reference seconds of ``SETUP_REPS`` cold set-ups.

    Each set-up imports the modules in a fresh interpreter.  This
    process imports them first, untimed, so that every sample measures
    the same work: otherwise the first build would also import them.
    """
    for module in cls.modules:
        importlib.import_module(module)

    def setup(workload) -> None:
        subprocess.run([sys.executable, "-c",
                        "import " + ", ".join(cls.modules)],
                       cwd=ROOT, check=True)
        workload.build()

    watch = Stopwatch(calibrator)
    samples = []
    for rep in range(SETUP_REPS):
        workload = cls(work / f"setup-{rep}", seed)
        try:
            samples.append(watch.time(setup, workload)[2])
        finally:
            workload.close()
    return statistics.median(samples)


def run_loop(workload, seconds: float, calibrator, profile=None):
    """Warm-up op, then timed ops until ``seconds`` have passed.

    Returns the wall and reference seconds of the timed ops that
    succeeded, and the attempted and failed op counts.
    """
    def op(index: int) -> bool:
        try:
            workload.op(index)
            return True
        except Exception:
            traceback.print_exc()
            return False

    watch = Stopwatch(calibrator, profile)
    walls: list[float] = []
    scaled: list[float] = []
    attempted = failed = 0
    deadline = None
    while True:
        ok, wall, ref = watch.time(op, attempted)
        attempted += 1
        failed += not ok
        if deadline is None:
            deadline = time.perf_counter() + seconds
        elif ok:
            walls.append(wall)
            scaled.append(ref)
        now = time.perf_counter()
        if now >= deadline and (len(walls) >= MIN_TIMED_OPS
                                or now >= deadline + seconds):
            return walls, scaled, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(SRC))
    from calibrate import Calibrator
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    # Spawned interpreters (set-up imports, fabric workers) import the
    # package from this checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        with Calibrator() as calibrator:
            setup_s = time_setup(cls, work, args.seed, calibrator)
            profile = None
            if args.trace:
                from layers import LayerProfile

                profile = LayerProfile(work / "profiles")
                os.environ.update(
                    profile.worker_env(os.environ["PYTHONPATH"]))
                profile.start_threads()
            workload = cls(work / "run", args.seed)
            try:
                workload.build()
                walls, scaled, attempted, failed = run_loop(
                    workload, args.seconds, calibrator, profile)
            finally:
                workload.close()
        correct = failed == 0 and bool(walls)
        try:
            workload.check()
        except Exception:
            traceback.print_exc()
            correct = False
        op_s = statistics.median(scaled) if scaled else float("nan")
        if profile is not None:
            from layers import per_op_metrics

            metrics = per_op_metrics(profile.collect(), attempted)
            metrics["traced_op_s"] = {"value": op_s, "unit": "s"}
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "op_s": {"value": op_s, "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mib": {"value": peak / 1024.0, "unit": "MiB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall_s = statistics.median(walls) if walls else float("nan")
    print(f"perfbench {args.workload}: {len(walls)} timed ops of "
          f"{attempted}, median {wall_s:.4f} wall s = {op_s:.4f} "
          f"reference s; set-up {setup_s:.4f} reference s")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
