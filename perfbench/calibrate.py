"""Host-speed calibration for ``run.py``.

The benchmark shares a host whose speed drifts and bursts with other
tenants' load, by tens of percent within a minute.  Every timed region
is bracketed by runs of :func:`calibration_loop`, a fixed pure-Python
workload in which none of the program's code runs, so no change to the
program moves it; times are reported scaled to a host on which the loop
takes :data:`REFERENCE_CAL_S`.

The loop runs in a child process (``python3 calibrate.py`` answers one
timing per line read from stdin) so that its allocations stay out of
the benchmark's peak resident set.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from pathlib import Path

#: Nominal duration of :func:`calibration_loop`; times are reported in
#: seconds of a host on which the loop takes exactly this long.
REFERENCE_CAL_S = 0.2


def calibration_loop() -> float:
    """Wall seconds of arithmetic, then allocating small dicts and lists
    and visiting them in random order.

    The mix of arithmetic and scattered memory access follows the
    simulator's op times more closely than either part alone.
    """
    start = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i * i % 7
    objs = [{"a": i, "b": [i, i + 1], "c": str(i)} for i in range(60_000)]
    order = list(range(len(objs)))
    random.Random(1).shuffle(order)
    for i in order:
        total += objs[i]["b"][1]
    del objs
    return time.perf_counter() - start


class Calibrator:
    """The calibration child process; use as a context manager."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        """One :func:`calibration_loop` timing, in seconds."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration process exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for _request in sys.stdin:
        print(repr(calibration_loop()), flush=True)
