"""The runtime imports neither networkx nor scipy.

Every process that simulates pays its imports on each cold start, so
the gate runs in fresh interpreters: one per benchmark workload's
module list (read from ``perfbench/workloads.py``) plus the CLI entry
point, and one that simulates with both packages made unimportable.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("networkx", "scipy")


def _workload_modules() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {name: cls.modules for name, cls in workloads.WORKLOADS.items()}


def _python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("modules", [
    *(pytest.param(modules, id=name)
      for name, modules in _workload_modules().items()),
    pytest.param(("repro.__main__",), id="cli")])
def test_cold_import_loads_no_heavy_package(modules):
    loaded = _python(f"import sys, {', '.join(modules)}\n"
                     f"print([m for m in {HEAVY!r} if m in sys.modules])")
    assert loaded == "[]"


def test_points_simulate_with_networkx_and_scipy_unimportable():
    # Two nodes: the 12-GPU routes cross the fat-tree.
    out = json.loads(_python(f"""
import json, sys
for name in {HEAVY!r}:
    sys.modules[name] = None
from repro.core import paper_default_config
from repro.mpi.libraries import MPI_LIBRARIES
from repro.runner import OSUPoint, TrainPoint
m = TrainPoint(gpus=12, config=paper_default_config(), iterations=1,
               warmup_iterations=0).execute()
osu = OSUPoint(gpus=12, library=MPI_LIBRARIES["MVAPICH2-GDR"],
               nbytes=1 << 20, iterations=1).execute()
print(json.dumps({{"efficiency": m.scaling_efficiency,
                  "ranks": osu.ranks, "latency_s": osu.latency_s}}))
"""))
    assert 0.5 < out["efficiency"] <= 1.0
    assert out["ranks"] == 12 and out["latency_s"] > 0
