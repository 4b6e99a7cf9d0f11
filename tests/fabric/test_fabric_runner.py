"""FabricRunner: the local Runner surface over pulled workers.

Thread-mode fleets (no sockets beyond the loopback coordinator) keep
these fast; the multi-process SIGKILL battery lives in
``test_chaos_fabric.py``.
"""

import pickle
import threading
import time

import pytest

from repro.fabric import FabricCoordinator, FabricRunner
from repro.fabric.queue import ItemState
from repro.runner import ExecutionBackend, ResultCache, Runner, RunnerError
from repro.telemetry import to_prometheus

from tests.fabric._points import FailPoint, OkPoint


def make_runner(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("spawn", "thread")
    kwargs.setdefault("poll_s", 0.01)
    kwargs.setdefault("lease_s", 5.0)
    kwargs.setdefault("state_dir", tmp_path / "fab")
    return FabricRunner(**kwargs)


def test_satisfies_execution_backend(tmp_path):
    runner = make_runner(tmp_path)
    try:
        assert isinstance(runner, ExecutionBackend)
    finally:
        runner.close()


def test_batch_and_close_do_not_wait_for_poll_s(tmp_path):
    """Workers and the batch driver block on the queue, not on a timer:
    with poll_s=5 a one-point batch and close() each take well under
    it."""
    fabric = make_runner(tmp_path, poll_s=5.0)
    fabric.start()
    time.sleep(0.2)  # both workers idle, each in a waiting lease
    start = time.monotonic()
    assert fabric.run([OkPoint(token="a")]) == [{"token": "a", "squared": 1}]
    assert time.monotonic() - start < 1.0
    start = time.monotonic()
    fabric.close()
    assert time.monotonic() - start < 1.0


def test_results_byte_identical_to_serial(tmp_path):
    points = [OkPoint(token=t) for t in ("a", "bb", "ccc", "dddd")]
    serial = Runner(workers=0).run(list(points))
    with make_runner(tmp_path) as fabric:
        fanned = fabric.run(list(points))
    assert [pickle.dumps(v) for v in fanned] == \
        [pickle.dumps(v) for v in serial]
    meta = fabric.meta()
    assert meta["backend"] == "fabric" and meta["executed"] == 4


def test_dedup_and_input_order(tmp_path):
    points = [OkPoint(token="a"), OkPoint(token="bb"), OkPoint(token="a")]
    with make_runner(tmp_path) as fabric:
        values = fabric.run(points)
    assert values[0] == values[2] == {"token": "a", "squared": 1}
    assert values[1]["token"] == "bb"
    assert fabric.stats.deduplicated == 1


def test_shared_cache_turns_rerun_into_hits(tmp_path):
    cache = ResultCache(directory=tmp_path / "cache")
    points = [OkPoint(token=t) for t in ("a", "bb")]
    with make_runner(tmp_path, cache=cache) as fabric:
        first = fabric.run(list(points))
        second = fabric.run(list(points))
    assert [pickle.dumps(v) for v in first] == \
        [pickle.dumps(v) for v in second]
    assert fabric.stats.cache_hits == 2
    assert fabric.meta()["cache"]["hits"] == 2


def test_raise_policy_propagates_point_failure(tmp_path):
    with make_runner(tmp_path) as fabric:
        with pytest.raises(RunnerError, match="fail:bad"):
            fabric.run([FailPoint(token="bad")])


def test_quarantine_policy_resolves_none(tmp_path):
    """No point resolves to ``None``: a spent budget next to an innocent
    fails the batch with the worker's report of the real cause."""
    with make_runner(tmp_path) as fabric:
        with pytest.raises(RunnerError) as err:
            fabric.run([OkPoint(token="a"), FailPoint(token="bad")])
    assert str(err.value) == "point failed: fail:bad (ValueError('poison bad'))"


def test_run_points_overrides_are_batch_scoped(tmp_path):
    seen = []
    with make_runner(tmp_path) as fabric:
        values = fabric.run(
            [OkPoint(token="a")], retries=3, timeout_s=9.0,
            progress=lambda done, total, point, cached:
                seen.append((done, total, cached)))
        assert fabric.coordinator.queue.retries == 0  # restored
        assert fabric.timeout_s is None
        assert fabric.progress is None
    assert values[0]["token"] == "a"
    assert seen == [(1, 1, False)]


def test_concurrent_run_points_keep_overrides_isolated(tmp_path):
    """Two scheduler-style threads sharing one backend must not
    cross-wire progress callbacks or retry budgets (regression: the
    old implementation mutated shared instance state per batch)."""
    seen = {"a": [], "b": []}
    out = {}
    with make_runner(tmp_path, workers=2) as fabric:
        def job(name, tokens):
            pts = [OkPoint(token=t) for t in tokens]
            out[name] = fabric.run(
                pts, retries=1,
                progress=lambda done, total, point, cached:
                    seen[name].append(point.token))

        threads = [
            threading.Thread(target=job, args=("a", ["a1", "a2", "a3"])),
            threading.Thread(target=job, args=("b", ["b1", "b2", "b3"])),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    assert [v["token"] for v in out["a"]] == ["a1", "a2", "a3"]
    assert [v["token"] for v in out["b"]] == ["b1", "b2", "b3"]
    # Each batch's callback saw exactly its own points.
    assert sorted(seen["a"]) == ["a1", "a2", "a3"]
    assert sorted(seen["b"]) == ["b1", "b2", "b3"]


def test_duplicate_completion_cannot_overwrite_stored_result(tmp_path):
    """First write wins: once a completion is journaled, a buggy or
    nondeterministic duplicate must not replace the cached bytes."""
    cache = ResultCache(directory=tmp_path / "cache")
    coordinator = FabricCoordinator(tmp_path / "fab", cache=cache)
    _, (item_id,) = coordinator.queue.enqueue([OkPoint(token="a")])
    key = OkPoint(token="a").key()
    coordinator.queue.lease("w0")
    assert coordinator.complete("w0", item_id, {"v": 1}) == "done"
    assert coordinator.complete("w1", item_id, {"v": 2}) == "duplicate"
    assert coordinator.value(key) == {"v": 1}
    assert cache.get(key) == {"v": 1}


def test_coordinator_holds_no_values_after_batches(tmp_path):
    """A value is held only until the batch that enqueued it takes it
    (regression: the coordinator kept every value it ever produced)."""
    cache = ResultCache(directory=tmp_path / "cache")
    with make_runner(tmp_path, cache=cache) as fabric:
        for batch in range(5):
            tokens = [f"b{batch}p{i}" for i in range(4)]
            values = fabric.run([OkPoint(token=t) for t in tokens])
            assert [v["token"] for v in values] == tokens
            assert fabric.coordinator.results == {}


def test_concurrent_batches_sharing_points_both_get_values(tmp_path):
    """Without a cache the held value is the only copy: it must survive
    until every batch waiting on the point has taken it."""
    points = [OkPoint(token=t, delay_s=0.2) for t in ("x", "yy")]
    expected = [p.execute() for p in points]
    out = {}
    with make_runner(tmp_path) as fabric:
        threads = [threading.Thread(
            target=lambda name=name: out.update({name: fabric.run(points)}))
            for name in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert fabric.coordinator.results == {}
    assert out["a"] == out["b"] == expected


def test_aborted_batch_cancels_its_pending_items(tmp_path):
    """A batch that raises ends its PENDING items, so workers stop
    executing points of a job that is over; its LEASED items run on."""
    points = [FailPoint(token="bad")] + [
        OkPoint(token=f"ok{i}", delay_s=0.2) for i in range(10)]
    with make_runner(tmp_path, retries=0) as fabric:
        queue = fabric.coordinator.queue
        with pytest.raises(RunnerError, match="fail:bad"):
            fabric.run(points)
        with queue.lock:
            states = [item.state for item in queue.items()]
        assert ItemState.PENDING not in states
        started = states.count(ItemState.DONE) + states.count(ItemState.LEASED)
        cancelled = [item for item in queue.items()
                     if item.state == ItemState.FAILED
                     and item.describe != "fail:bad"]
        assert cancelled and all("cancelled" in item.error
                                 for item in cancelled)
        deadline = time.monotonic() + 5.0
        while ItemState.LEASED in states and time.monotonic() < deadline:
            time.sleep(0.05)
            with queue.lock:
                states = [item.state for item in queue.items()]
            assert states.count(ItemState.DONE) <= started
        assert ItemState.LEASED not in states
        failed = [record["id"] for record in queue.journal.events()
                  if record["event"] == "point_failed"]
        assert sorted(failed) == sorted(
            item.id for item in queue.items()
            if item.state == ItemState.FAILED)


def test_late_completion_leaves_a_failed_item_failed(tmp_path):
    """A point charged a ``timeout_s`` overrun stays FAILED when it
    finishes anyway: no ``point_done`` and, as on the pool, no cached
    value."""
    cache = ResultCache(directory=tmp_path / "cache")
    point = OkPoint(token="slow", delay_s=2.0)
    with make_runner(tmp_path, cache=cache, retries=0,
                     timeout_s=0.5) as fabric:
        with pytest.raises(RunnerError, match="point failed: ok:slow"):
            fabric.run([point])
        time.sleep(2.5)
        queue = fabric.coordinator.queue
        (item,) = queue.items()
        assert item.state == ItemState.FAILED
        events = [record["event"] for record in queue.journal.events()]
        assert "point_done" not in events
        assert cache.get(point.key()) is None
        assert fabric.coordinator.results == {}


def test_serve_refuses_non_loopback_bind_without_token(tmp_path):
    coordinator = FabricCoordinator(tmp_path / "fab")
    with pytest.raises(ValueError, match="non-loopback.*token"):
        coordinator.serve(host="0.0.0.0")
    assert coordinator.url is None  # nothing was bound
    coordinator.close()


def test_validation_errors():
    with pytest.raises(ValueError, match="workers"):
        FabricRunner(workers=0)
    with pytest.raises(TypeError):  # one policy: a spent budget raises
        FabricRunner(failure_policy="quarantine")
    with pytest.raises(ValueError, match="spawn"):
        FabricRunner(spawn="hologram")


def test_runner_metrics_mirror_local_names(tmp_path):
    with make_runner(tmp_path) as fabric:
        fabric.run([OkPoint(token="a")])
    text = to_prometheus(fabric.registry)
    assert 'runner_points_total{status="executed"} 1' in text
    assert "runner_batches_total 1" in text
    assert "runner_workers 2" in text
    assert "fabric_leases_total" in text  # protocol counters ride along
