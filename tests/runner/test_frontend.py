"""One front-end battery, run against every backend.

The inline Runner, the process-pool Runner and the thread-spawned
FabricRunner share the Runner's batch front-end; only how the cache
misses execute differs.  Every check here runs on all three.
"""

import pickle

import pytest

from repro.core import paper_tuned_config
from repro.fabric import FabricRunner
from repro.runner import ResultCache, Runner, RunnerError, TrainPoint
from repro.telemetry import to_prometheus

from tests.fabric._points import FailPoint, FlakyPoint, OkPoint

RUNNER_FAMILIES = {
    "runner_points_total", "runner_batches_total",
    "runner_execute_seconds_total", "runner_retries_total",
    "runner_timeouts_total", "runner_pool_respawns_total", "runner_progress_errors_total",
    "runner_traces_captured_total", "runner_workers",
}
META_KEYS = {
    "workers", "points", "cache_hits", "cache_misses", "executed",
    "deduplicated", "execute_seconds", "retries", "timeouts",
    "pool_respawns", "progress_errors", "traces_captured",
}


@pytest.fixture(params=("inline", "pool", "fabric"))
def make(request, tmp_path):
    """Build runners of the parametrized backend; fabrics close at teardown."""
    made = []

    def factory(**kwargs):
        if request.param == "fabric":
            runner = FabricRunner(workers=2, spawn="thread", poll_s=0.01,
                                  lease_s=5.0, state_dir=tmp_path / "fab",
                                  **kwargs)
        else:
            workers = 2 if request.param == "pool" else 0
            runner = Runner(workers=workers, **kwargs)
        made.append(runner)
        return runner

    yield factory
    for runner in made:
        if isinstance(runner, FabricRunner):
            runner.close()


def test_input_order_dedup_and_cache_hits(make, tmp_path):
    runner = make(cache=ResultCache(directory=tmp_path / "cache"))
    points = [OkPoint(token=t) for t in ("a", "bb", "a", "ccc")]
    cold = runner.run(points)
    assert [v["token"] for v in cold] == ["a", "bb", "a", "ccc"]
    assert (runner.stats.executed, runner.stats.deduplicated) == (3, 1)
    warm = runner.run(points)
    assert [pickle.dumps(v) for v in warm] == [pickle.dumps(v) for v in cold]
    assert (runner.stats.executed, runner.stats.cache_hits) == (3, 4)


def test_raising_progress_callback_is_counted_not_fatal(make):
    def progress(done, total, point, cached):
        raise ValueError("broken progress bar")

    runner = make(progress=progress)
    values = runner.run([OkPoint(token=t) for t in ("a", "bb", "ccc")])
    assert [v["token"] for v in values] == ["a", "bb", "ccc"]
    assert runner.stats.progress_errors == 3
    assert "runner_progress_errors_total 3" in to_prometheus(runner.registry)


def test_quarantine_record_carries_the_real_cause(make):
    """A spent budget next to an innocent fails the batch naming the
    poison point and its own exception on every backend, never a pool
    or transport error standing in for it."""
    with pytest.raises(RunnerError) as err:
        make().run([OkPoint(token="a"), FailPoint(token="bad")])
    assert str(err.value) == "point failed: fail:bad (ValueError('poison bad'))"


def test_raised_failure_names_the_real_cause(make):
    with pytest.raises(RunnerError, match=r"point failed: fail:bad .*poison bad"):
        make().run([FailPoint(token="bad")])


@pytest.mark.parametrize("k", (1, 2))
def test_retries_count_charged_failures_alike(make, tmp_path, k):
    """A point failing k times resolves with retries=k and fails with
    retries=k-1 — one budget meaning on every backend."""
    runner = make(retries=k)
    ok = FlakyPoint(token="ok", fails=k, tally_dir=str(tmp_path / "ok"))
    assert runner.run([ok]) == [{"token": "ok", "runs": k + 1}]
    short = tmp_path / "short"
    with pytest.raises(RunnerError, match=f"flaky short run {k}"):
        runner.run([FlakyPoint(token="short", fails=k,
                               tally_dir=str(short))], retries=k - 1)
    assert len(list(short.iterdir())) == k


@pytest.mark.parametrize("make", ("pool", "fabric"), indirect=True)
def test_overrun_is_a_charged_timeout(make):
    """Inline execution cannot be interrupted; the pool watchdog and the
    fabric worker's heartbeat deadline both charge a TimeoutError."""
    runner = make(timeout_s=0.3)
    with pytest.raises(RunnerError) as err:
        runner.run([OkPoint(token="slow", delay_s=3.0)])
    assert str(err.value) == ("point failed: ok:slow "
                              "(TimeoutError('point exceeded timeout_s=0.3'))")


def test_metric_names_and_meta_keys(make, tmp_path):
    runner = make(cache=ResultCache(directory=tmp_path / "cache"))
    runner.run([OkPoint(token="a")])
    families = {f.name for f in runner.registry.collect()
                if f.name.startswith("runner_")}
    assert families == RUNNER_FAMILIES
    extra = {"backend"} if isinstance(runner, FabricRunner) else set()
    assert set(runner.meta()) == META_KEYS | {"cache"} | extra


def test_trace_dir_capture_matches_inline(make, tmp_path):
    points = [TrainPoint(gpus=g, config=paper_tuned_config(), iterations=2,
                         jitter_std=0.0, trace="spans") for g in (2, 3)]
    reference = tmp_path / "reference"
    Runner(trace_dir=reference).run(points)
    runner = make(trace_dir=tmp_path / "traces")
    runner.run(points)
    assert runner.stats.traces_captured == 2
    files = sorted(reference.iterdir())
    assert [f.name for f in files] == sorted(
        f"{p.key()[:16]}.trace.json" for p in points)
    for f in files:
        assert (tmp_path / "traces" / f.name).read_bytes() == f.read_bytes()
