"""The benchmark's workloads: what one *op* is, how it is checked.

Every workload is a closed loop with one caller: the next op starts
when the previous one has returned.  Inputs derive from ``--seed``
alone; a seed only changes the simulations' jitter seeds, never the
shape or size of the work, so op cost does not depend on it.

* ``paper`` — one point of the paper's full-scale sweeps (E4/E5/E9):
  DeepLabv3+ on 132 Summit GPUs, default config, one iteration,
  executed in process.  Stresses the simulator core at scale:
  DES kernel, link model, MPI ring collectives, Horovod negotiation.
  Ops alternate between two jitter seeds; every repeat of a seed must
  reproduce its first result bit for bit.
* ``quick`` — the quick tier's cheapest experiments (E1, E2, E3, E7;
  the others take seconds to tens of seconds each) through the inline
  cached ``Runner`` on a fresh cache (cold), then once more on the now
  warm cache, saving each result JSON.  Stresses small-scale
  simulations, experiment functions and cache pickle I/O; the warm pass
  must reproduce the cold payloads exactly.
* ``service`` — one client submitting a two-point job over HTTP to a
  ``repro serve``-equivalent service, following it over SSE and
  fetching the result envelope; then the identical job again, which the
  service answers from its cache.  Stresses the REST API, job queue
  journal (fsync), scheduler and SSE; the warm envelope must be
  byte-identical to the cold one.
* ``fabric`` — a four-point batch through a ``FabricRunner`` with two
  ``repro worker`` processes and a token (HMAC-signed payloads), then
  the same batch again (coordinator cache hits).  Stresses leases,
  HTTP, HMAC, pickling and the point-queue journal.
"""

from __future__ import annotations

import json
import pickle
import shutil
import inspect
from pathlib import Path


class CheckError(AssertionError):
    """An op produced a wrong or non-reproducible output."""


class Workload:
    """One fixture (built by :meth:`build`) plus the op run against it."""

    #: Modules a fresh interpreter imports as part of set-up.
    modules: tuple[str, ...] = ()

    def __init__(self, directory: Path, seed: int) -> None:
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.seed = int(seed)

    def jitter_seed(self, index: int) -> int:
        """Distinct per (``--seed``, op) so no op hits another's cache."""
        return self.seed * 100_003 + index

    def build(self) -> None:
        """Bring the fixture up (timed as set-up)."""

    def op(self, index: int) -> None:
        """Run op ``index``; raise :class:`CheckError` on a wrong output."""
        raise NotImplementedError

    def check(self) -> None:
        """Untimed end-of-run verification against inline execution."""

    def close(self) -> None:
        """Stop everything :meth:`build` started and wait for it."""


class Paper(Workload):
    modules = ("repro.core", "repro.runner")
    GPUS = 132

    def build(self) -> None:
        from repro.core import paper_default_config
        from repro.core.sweep import clear_profile_cache, model_profile
        from repro.runner import TrainPoint

        clear_profile_cache()
        model_profile("deeplab")
        self.points = [
            TrainPoint(gpus=self.GPUS, config=paper_default_config(),
                       iterations=1, warmup_iterations=0,
                       seed=self.jitter_seed(k))
            for k in range(2)]
        self.fingerprints: dict[int, bytes] = {}

    def op(self, index: int) -> None:
        which = index % len(self.points)
        m = self.points[which].execute()
        # The paper reports ~70% scaling efficiency for the default
        # configuration at 132 GPUs.
        if not 0.6 <= m.scaling_efficiency <= 0.8:
            raise CheckError(
                f"default efficiency {m.scaling_efficiency:.3f} at "
                f"{self.GPUS} GPUs is outside [0.6, 0.8]")
        fingerprint = pickle.dumps((m.stats, m.runtime_stats))
        first = self.fingerprints.setdefault(which, fingerprint)
        if fingerprint != first:
            raise CheckError(f"seed {self.points[which].seed} did not "
                             f"reproduce its first result")


class Quick(Workload):
    modules = ("repro.bench.registry", "repro.runner")
    EXPERIMENTS = ("E1", "E2", "E3", "E7")

    def build(self) -> None:
        from repro.bench.registry import REGISTRY

        self.specs = [REGISTRY[exp_id] for exp_id in self.EXPERIMENTS]

    def _run(self, spec, seed: int, runner):
        kwargs = spec.kwargs(quick=True)
        if "seed" in inspect.signature(spec.fn).parameters:
            kwargs["seed"] = seed
        if spec.parallelizable:
            kwargs["runner"] = runner
        result = spec.fn(**kwargs)
        result.meta = {"variant": "quick"}
        return result

    def op(self, index: int) -> None:
        from repro.bench.harness import save_result
        from repro.runner import ResultCache, Runner

        cache_dir = self.dir / f"cache-{index}"
        runner = Runner(workers=0, cache=ResultCache(directory=cache_dir))
        seed = self.jitter_seed(index)
        try:
            for spec in self.specs:
                cold = self._run(spec, seed, runner)
                save_result(cold, self.dir / "results")
                warm = self._run(spec, seed, runner)
                if json.dumps(cold.payload()) != json.dumps(warm.payload()):
                    raise CheckError(f"{spec.id}: warm-cache payload differs")
                if not cold.rows:
                    raise CheckError(f"{spec.id}: no result rows")
            if runner.cache.stats.hits == 0:
                raise CheckError("the warm pass never hit the cache")
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


def _train_points(seed: int) -> list[dict]:
    return [{"kind": "train", "gpus": 6, "config": config, "iterations": 2,
             "seed": seed} for config in ("default", "tuned")]


class Service(Workload):
    modules = ("repro.service.api", "repro.service.client")

    def build(self) -> None:
        from repro.service.api import Service as ServiceRoot
        from repro.service.api import serve_in_thread
        from repro.service.client import ServiceClient
        from repro.service.config import ServiceConfig

        config = ServiceConfig(port=0, state_dir=self.dir / "service")
        self.service = ServiceRoot(config)
        self.service.start()
        self.thread, url = serve_in_thread(self.service)
        self.client = ServiceClient(url=url)
        if self.client.healthz().get("status") != "ok":
            raise CheckError("service is not healthy after start")
        self.first: tuple[list, bytes] | None = None

    def _roundtrip(self, points: list[dict]) -> bytes:
        job = self.client.submit(points=points)
        state = None
        for doc in self.client.follow(job["id"], timeout_s=60.0):
            state = doc["state"]
        if state != "DONE":
            raise CheckError(f"job {job['id']} ended {state!r}")
        return self.client.result_bytes(job["id"])

    def op(self, index: int) -> None:
        points = _train_points(self.jitter_seed(index))
        cold = self._roundtrip(points)
        warm = self._roundtrip(points)
        if cold != warm:
            raise CheckError("cached resubmission changed the envelope")
        if self.first is None:
            self.first = (points, cold)

    def check(self) -> None:
        from repro.service.jobs import build_points, parse_spec
        from repro.service.scheduler import points_envelope

        if self.first is None:
            raise CheckError("no job completed")
        raw, envelope = self.first
        points = build_points(parse_spec({"points": raw}))
        expected = points_envelope(points, [p.execute() for p in points])
        if expected.encode("utf-8") != envelope:
            raise CheckError("service envelope differs from inline execution")

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is None:
            return
        service.stop(drain=True)
        server = getattr(service, "http_server", None)
        if server is not None:
            server.shutdown()
            self.thread.join(timeout=10.0)


class Fabric(Workload):
    modules = ("repro.fabric",)
    WORKERS = 2

    def build(self) -> None:
        from repro.core import paper_default_config, paper_tuned_config
        from repro.fabric import FabricRunner
        from repro.mpi.libraries import MPI_LIBRARIES
        from repro.runner import OSUPoint, ResultCache

        self.configs = (paper_default_config(), paper_tuned_config())
        self.runner = FabricRunner(
            workers=self.WORKERS, cache=ResultCache(directory=self.dir / "cache"),
            state_dir=self.dir / "fabric", token=f"perfbench-{self.seed}",
            spawn="process")
        self.runner.start()
        # Set-up ends once the fleet is serving: one tiny point per worker.
        library = MPI_LIBRARIES["MVAPICH2-GDR"]
        self.runner.run([OSUPoint(gpus=2, library=library, nbytes=4 * (k + 1),
                                  iterations=1)
                         for k in range(self.WORKERS)])
        self.first: tuple[list, list] | None = None

    def _points(self, index: int) -> list:
        from repro.runner import TrainPoint

        return [TrainPoint(gpus=6, config=config, iterations=2,
                           seed=self.jitter_seed(2 * index + k))
                for k in range(2) for config in self.configs]

    def op(self, index: int) -> None:
        points = self._points(index)
        cold = [pickle.dumps(m.stats) for m in self.runner.run(points)]
        warm = [pickle.dumps(m.stats) for m in self.runner.run(points)]
        if cold != warm:
            raise CheckError("coordinator cache hits changed the results")
        if self.first is None:
            self.first = (points, cold)

    def check(self) -> None:
        if self.first is None:
            raise CheckError("no batch completed")
        points, stats = self.first
        # One point per config: the rest differ only in jitter seed.
        sample = range(len(self.configs))
        if [pickle.dumps(points[i].execute().stats) for i in sample] != [
                stats[i] for i in sample]:
            raise CheckError("fabric results differ from inline execution")

    def close(self) -> None:
        runner = getattr(self, "runner", None)
        if runner is not None:
            runner.close(timeout_s=30.0)


WORKLOADS: dict[str, type[Workload]] = {
    "paper": Paper,
    "quick": Quick,
    "service": Service,
    "fabric": Fabric,
}
