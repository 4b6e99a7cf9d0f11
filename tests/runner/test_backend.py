"""The unified ExecutionBackend surface."""

from dataclasses import dataclass
from typing import ClassVar

from repro.runner import ExecutionBackend, Runner
from repro.runner.simpoint import SimPoint


@dataclass(frozen=True)
class TokenPoint(SimPoint):
    kind: ClassVar[str] = "backend_token"
    token: str

    def execute(self):
        return {"token": self.token}

    def describe(self):
        return f"token:{self.token}"


def test_runner_satisfies_protocol():
    assert isinstance(Runner(workers=0), ExecutionBackend)


def test_scheduler_accepts_any_backend(tmp_path):
    """The scheduler wraps an injected backend in a per-job view that
    delegates everything to the shared backend underneath."""
    from repro.service import JobQueue, Scheduler

    backend = Runner(workers=0)
    scheduler = Scheduler(JobQueue(tmp_path / "state"),
                          tmp_path / "results", backend=backend)
    runner = scheduler._runner(job=None, policy="quarantine")
    assert runner._backend is backend
    assert isinstance(runner, ExecutionBackend)
    # Attribute access falls through to the shared backend.
    assert runner.workers == backend.workers
    assert runner.meta() == backend.meta()
    assert runner.run([TokenPoint(token="x")]) == [{"token": "x"}]


def test_run_points_overrides_are_batch_scoped():
    runner = Runner(workers=0, retries=2, timeout_s=30.0)
    seen = []
    values = runner.run(
        [TokenPoint(token="a")], retries=0, timeout_s=1.0,
        progress=lambda done, total, point, cached:
            seen.append((done, total, cached)))
    assert values == [{"token": "a"}]
    assert seen == [(1, 1, False)]
    # The configured values survive the batch override.
    assert (runner.retries, runner.timeout_s, runner.progress) \
        == (2, 30.0, None)
