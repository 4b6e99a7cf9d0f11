"""Profile a spawned fabric worker for ``run.py --trace 1``.

This directory is put on a worker's ``PYTHONPATH`` together with
``PERFBENCH_PROFILE_DIR``; the interpreter imports this module at start
up, and the profile is dumped there when the worker exits (it drains
and returns normally when the coordinator shuts down).
"""

import os

_DIR = os.environ.get("PERFBENCH_PROFILE_DIR")

if _DIR:
    import atexit
    import cProfile

    _PROFILE = cProfile.Profile()

    def _dump() -> None:
        _PROFILE.disable()
        _PROFILE.dump_stats(os.path.join(_DIR, f"worker-{os.getpid()}.prof"))

    atexit.register(_dump)
    _PROFILE.enable()
