"""Per-layer attribution of host time for ``run.py --trace 1``.

The profile is taken from the benchmark side, around the calls into the
program: :class:`LayerProfile` runs :mod:`cProfile` on the calling
thread, on every thread started while it is active (service scheduler,
HTTP handler threads) and, through ``workerprof/sitecustomize.py``, in
spawned fabric worker processes.  The merged statistics are split two
ways:

* **self time per layer** — every profiled function's own time goes to
  the layer that owns it: a ``repro`` subpackage (``sim`` is the DES
  kernel, ``cluster`` the link/transfer model, ``mpi`` the collectives,
  ``horovod`` negotiation and fusion, ``train`` the trainer, ``runner``
  dispatch and the result cache, ``fabric`` / ``service`` the platform),
  ``numpy``, or one of the stdlib planes the platform layers lean on
  (``pickle``, ``json``, ``http``, ``hmac``, ``fsync``).  Module
  bodies and the import machinery are ``import`` (worker processes are
  profiled from interpreter start); the benchmark's own frames
  (fingerprinting outputs) are ``bench``.  Time spent blocked (sleeps,
  lock and socket waits, ``select``) is ``wait``.  Any
  other stdlib or builtin frame is charged to the layers of its callers,
  split by the caller edges cProfile records;
* **work counts** — calls of plain (non-generator) entry points, e.g.
  ``Environment._schedule`` for kernel events.

Values are per op over every op attempted, the warm-up op included.
Threads and worker processes are profiled over their whole life, so
the part of the fixture's build they run is spread over those ops.

cProfile adds a fixed cost per Python call, so layers made of many
small calls look heavier than they are: compare traced numbers with
traced numbers only.  End-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sysconfig
import threading
from collections import defaultdict
from pathlib import Path

#: ``repro`` subpackages reported as their own layer; the rest of the
#: package (experiment functions, cost model, checkpoint, ...) is ``repro``.
LAYERS = ("sim", "cluster", "mpi", "horovod", "train", "runner", "fabric",
          "service", "obs")

#: Stdlib packages and modules whose self time is a plane of its own.
_STDLIB_DIRS = {"json": "json", "http": "http", "urllib": "http",
                "email": "http"}
_STDLIB_FILES = {"pickle.py": "pickle", "_compat_pickle.py": "pickle",
                 "hmac.py": "hmac", "hashlib.py": "hmac",
                 "socket.py": "http", "socketserver.py": "http"}

#: Builtins (cProfile reports them under file ``~``) by name fragment.
_BUILTIN_PLANES = (
    ("posix.fsync", "fsync"),
    ("_pickle", "pickle"),
    ("_hashlib", "hmac"), ("_hmac", "hmac"), ("_sha", "hmac"),
    ("_json", "json"),
    ("time.sleep", "wait"), ("_thread.lock", "wait"),
    ("_thread.RLock", "wait"), ("select.", "wait"), ("posix.waitpid", "wait"),
    ("recv", "wait"), ("accept", "wait"),
    ("_socket", "http"),
    ("numpy", "numpy"),
)

#: Per-op work counts: metric -> (file suffix, function name).  Only
#: plain functions: cProfile counts every resumption of a generator.
COUNTS = {
    "sim_events": ("repro/sim/engine.py", "_schedule"),
    "cluster_transfers": ("repro/cluster/fabric.py", "transfer_gen"),
    "mpi_messages": ("repro/mpi/communicator.py", "isend"),
    "mpi_allreduces": ("repro/mpi/communicator.py", "allreduce"),
    "horovod_tensors": ("repro/horovod/runtime.py", "submit"),
    "cache_gets": ("repro/runner/cache.py", "get"),
    "cache_puts": ("repro/runner/cache.py", "put"),
    "fabric_requests": ("repro/fabric/runner.py", "handle"),
    "service_requests": ("repro/service/api.py", "handle"),
    "hmac_payloads": ("repro/fabric/worker.py", "encode_payload"),
    "fsyncs": ("~", "<built-in method posix.fsync>"),
}

#: Time categories reported as ``<name>_ms`` per op, in report order.
TIME_CATEGORIES = LAYERS + ("repro", "numpy", "pickle", "json", "http",
                            "hmac", "fsync", "import", "python", "bench",
                            "wait")


def _dir_prefix(path) -> str:
    return str(Path(path).resolve()).replace("\\", "/").rstrip("/") + "/"


#: Where the package, this benchmark and the stdlib live on this host.
_PACKAGE = _dir_prefix(Path(__file__).resolve().parent.parent / "src" / "repro")
_BENCH = _dir_prefix(Path(__file__).resolve().parent)
_STDLIB = _dir_prefix(sysconfig.get_paths()["stdlib"])


def category(func: tuple) -> str | None:
    """The category owning ``func``'s self time (``None``: its callers)."""
    filename, _line, name = func
    if name == "<module>" or filename.startswith("<frozen importlib"):
        return "import"
    if filename == "~":
        for fragment, plane in _BUILTIN_PLANES:
            if fragment in name:
                return plane
        return None
    path = filename.replace("\\", "/")
    if path.startswith(_PACKAGE):
        sub = path[len(_PACKAGE):].split("/", 1)
        return sub[0] if len(sub) == 2 and sub[0] in LAYERS else "repro"
    if path.startswith(_BENCH):
        return "bench"
    if "/numpy/" in path:
        return "numpy"
    if not path.startswith(_STDLIB):
        return None
    parts = path[len(_STDLIB):].split("/")
    if parts[0] in _STDLIB_DIRS:
        return _STDLIB_DIRS[parts[0]]
    return _STDLIB_FILES.get(parts[0])


def attribute(stats: dict) -> dict[str, float]:
    """Self seconds per category from a ``pstats.Stats.stats`` mapping.

    Uncategorised frames hand their self time to their callers, split
    by the per-edge self time cProfile keeps; callers that are
    themselves uncategorised pass it on, split by cumulative time.
    """
    owners: dict[tuple, dict[str, float]] = {}

    def owner_of(func: tuple, stack: frozenset) -> dict[str, float]:
        cat = category(func)
        if cat is not None:
            return {cat: 1.0}
        if func in owners:
            return owners[func]
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {c: edge[3] for c, edge in callers.items()
                   if c not in stack}
        total = sum(weights.values())
        if total <= 0.0:
            return {"python": 1.0}
        share: dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for cat, frac in owner_of(caller, stack | {func}).items():
                share[cat] += frac * weight / total
        owners[func] = dict(share)
        return owners[func]

    out: dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        cat = category(func)
        if cat is not None:
            out[cat] += tt
            continue
        edges = {c: edge[2] for c, edge in callers.items()}
        total = sum(edges.values())
        if total <= 0.0:
            out["python"] += tt
            continue
        for caller, weight in edges.items():
            for owner, frac in owner_of(caller, frozenset({func})).items():
                out[owner] += tt * frac * weight / total
    return dict(out)


def count_calls(stats: dict) -> dict[str, int]:
    """Calls of each :data:`COUNTS` entry point."""
    totals = {name: 0 for name in COUNTS}
    for (filename, _line, name), (_cc, nc, _tt, _ct, _callers) in stats.items():
        path = filename.replace("\\", "/")
        for metric, (suffix, fn) in COUNTS.items():
            if name == fn and path.endswith(suffix):
                totals[metric] += nc
    return totals


class LayerProfile:
    """Profiles the calling thread, new threads and worker processes.

    ``worker_dir`` is where worker processes started with
    :meth:`worker_env` dump their profiles on exit.
    """

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = Path(worker_dir)
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        self._main = cProfile.Profile()
        self._threads: list[tuple[threading.Thread, cProfile.Profile]] = []
        self._lock = threading.Lock()
        self._orig_run = None

    def worker_env(self, pythonpath: str) -> dict[str, str]:
        """Environment overrides that make worker processes profile."""
        site = str(Path(__file__).resolve().parent / "workerprof")
        return {"PERFBENCH_PROFILE_DIR": str(self.worker_dir),
                "PYTHONPATH": os.pathsep.join(filter(None, (site, pythonpath)))}

    def start_threads(self) -> None:
        """Profile every thread started from now on."""
        orig = self._orig_run = threading.Thread.run
        profiles, lock = self._threads, self._lock

        def run(thread):
            prof = cProfile.Profile()
            with lock:
                profiles.append((thread, prof))
            prof.enable()
            try:
                orig(thread)
            finally:
                prof.disable()

        threading.Thread.run = run

    def stop_threads(self) -> None:
        if self._orig_run is not None:
            threading.Thread.run = self._orig_run
            self._orig_run = None

    def enable(self) -> None:
        self._main.enable()

    def disable(self) -> None:
        self._main.disable()

    def collect(self) -> dict:
        """Merged ``pstats`` mapping of every finished thread and worker."""
        self.stop_threads()
        merged = pstats.Stats(self._main)
        with self._lock:
            for thread, prof in self._threads:
                if thread.is_alive():
                    continue
                prof.create_stats()
                if prof.stats:
                    merged.add(prof)
        for dump in sorted(self.worker_dir.glob("*.prof")):
            merged.add(str(dump))
        return merged.stats


def per_op_metrics(stats: dict, ops: int) -> dict[str, dict]:
    """The ``--trace 1`` metric block, every value per measured op."""
    ops = max(1, ops)
    seconds = attribute(stats)
    out = {f"{cat}_ms": {"value": seconds.get(cat, 0.0) * 1e3 / ops,
                         "unit": "ms/op"}
           for cat in TIME_CATEGORIES}
    busy = sum(v for k, v in seconds.items() if k != "wait")
    out["busy_ms"] = {"value": busy * 1e3 / ops, "unit": "ms/op"}
    for name, calls in count_calls(stats).items():
        out[name] = {"value": calls / ops, "unit": "count/op"}
    return out
