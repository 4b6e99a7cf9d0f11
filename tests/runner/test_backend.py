"""Batch-scoped overrides and backends injected into the scheduler."""

from dataclasses import dataclass
from typing import ClassVar

from repro.runner import Runner
from repro.runner.simpoint import SimPoint


@dataclass(frozen=True)
class TokenPoint(SimPoint):
    kind: ClassVar[str] = "backend_token"
    token: str

    def execute(self):
        return {"token": self.token}

    def describe(self):
        return f"token:{self.token}"


def test_scheduler_accepts_any_backend(tmp_path):
    """Each job gets its own Runner front-end whose cache misses run on
    the injected backend's ``_drive``; the job reports only its own
    counts, not the shared backend's lifetime totals."""
    from repro.service import JobQueue, JobState, Scheduler, parse_spec

    driven = []

    class Recording(Runner):
        def _drive(self, points, groups, todo, resolve, **budget):
            driven.append((len(todo), budget))
            super()._drive(points, groups, todo, resolve, **budget)

    backend = Recording(workers=0)
    backend.run([TokenPoint(token="earlier")])
    queue = JobQueue(tmp_path / "state")
    scheduler = Scheduler(queue, tmp_path / "results", backend=backend,
                          point_retries=2)
    job = queue.submit(parse_spec({"points": [
        {"kind": "osu_allreduce", "gpus": 2, "nbytes": 1024,
         "iterations": 1}]}))
    scheduler._execute(queue.lease("w0"))
    done = queue.get(job.id)
    assert done.state == JobState.DONE
    assert driven[1:] == [(1, {"timeout_s": None, "retries": 2})]
    assert (done.runner["points"], done.runner["executed"]) == (1, 1)
    assert backend.stats.points == 1  # the job never touched its front-end


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
