"""Chaos gate: SIGKILL a fabric worker mid-lease, exactly-once holds.

Three real worker *processes* (fork) pull points over HTTP from a
coordinator in this process.  One worker is SIGKILLed while it holds
the lease on a deliberately slow point; the lease lapses, the sweep
requeues the point, a surviving worker finishes it — and the merged
results are byte-identical to a serial run, with the lease journal
showing exactly one ``point_done`` per point.
"""

import json
import multiprocessing
import os
import pickle
import signal
import threading
import time

import pytest

from repro.fabric import FabricRunner, ItemState
from repro.runner import Runner, RunnerError

from tests.fabric._points import CrashPoint, OkPoint


def _worker_main(url: str, name: str) -> None:
    """Child body: one pull worker against the parent's coordinator."""
    from repro.fabric import FabricClient, FabricWorker, HttpTransport

    client = FabricClient(HttpTransport(url, timeout_s=10.0, retries=2))
    FabricWorker(client, worker=name, poll_s=0.02).run_forever()


@pytest.mark.chaos
def test_sigkill_mid_lease_completes_exactly_once(tmp_path):
    slow = OkPoint(token="slow-victim", delay_s=2.0)
    points = [slow] + [OkPoint(token=f"p{i}", delay_s=0.1)
                       for i in range(6)]
    serial = Runner(workers=0).run(list(points))

    fabric = FabricRunner(workers=3, spawn=None,
                          state_dir=tmp_path / "fab",
                          lease_s=1.0, poll_s=0.02)
    url = fabric.start()
    ctx = multiprocessing.get_context("fork")
    procs = {}
    for i in range(3):
        name = f"chaos:{i}"
        proc = ctx.Process(target=_worker_main, args=(url, name),
                           daemon=True)
        proc.start()
        procs[name] = proc

    results = {}
    driver = threading.Thread(
        target=lambda: results.update(values=fabric.run(list(points))),
        daemon=True)
    driver.start()

    # Wait until some worker holds the slow point's lease, then kill it.
    victim = None
    deadline = time.monotonic() + 30.0
    while victim is None and time.monotonic() < deadline:
        for item in fabric.coordinator.queue.items():
            if item.key == slow.key() and item.state == ItemState.LEASED:
                victim = item.worker
                break
        time.sleep(0.02)
    assert victim is not None, "slow point was never leased"
    os.kill(procs[victim].pid, signal.SIGKILL)
    procs[victim].join(timeout=10.0)

    driver.join(timeout=90.0)
    assert not driver.is_alive(), "fabric run did not recover from the kill"
    fabric.close()
    for proc in procs.values():
        proc.join(timeout=10.0)

    # The distributed sweep is byte-identical to the serial one.
    assert [pickle.dumps(v) for v in results["values"]] == \
        [pickle.dumps(v) for v in serial]

    # Exactly-once: the journal records one point_done per point, and
    # at least one dead-worker recovery proves the kill landed mid-lease.
    journal = tmp_path / "fab" / "fabric.jsonl"
    events = [json.loads(line)
              for line in journal.read_text().splitlines()]
    done = [e for e in events if e["event"] == "point_done"]
    assert len(done) == len({e["id"] for e in done}) == len(points)
    recoveries = [e for e in events if e["event"] == "point_requeued"
                  and e.get("recoveries", 0) >= 1]
    assert recoveries, "expected a dead-worker lease recovery"


@pytest.mark.chaos
def test_process_fleet_respawns_dead_worker(tmp_path):
    """spawn="process" mode: a killed subprocess is respawned by the
    drive loop and the batch still completes."""
    points = [OkPoint(token=f"r{i}", delay_s=0.2) for i in range(6)]
    fabric = FabricRunner(workers=2, spawn="process",
                          state_dir=tmp_path / "fab",
                          lease_s=1.0, poll_s=0.05)
    with fabric:
        pids = fabric.worker_pids()
        assert len(pids) == 2
        os.kill(pids[0], signal.SIGKILL)
        values = fabric.run(list(points))
    assert all(v["token"] == f"r{i}" for i, v in enumerate(values))
    assert fabric.stats.pool_respawns >= 1


@pytest.mark.chaos
def test_dead_idle_worker_gives_its_lease_back_at_once(tmp_path):
    """A worker SIGKILLed while its lease request is held open at the
    coordinator must not cost the next batch a lapsed lease: the runner
    sees the process gone and reclaims at once, so a one-point batch
    ends in seconds under a 30 s lease."""
    fabric = FabricRunner(workers=1, spawn="process",
                          state_dir=tmp_path / "fab",
                          lease_s=30.0, poll_s=2.0)
    with fabric:
        queue = fabric.coordinator.queue
        # Kill the worker just after it opens a fresh 2 s lease request,
        # so the request is still waiting when the batch is enqueued.
        (pid,) = fabric.worker_pids()
        deadline = time.monotonic() + 30.0
        while not queue.workers_seen and time.monotonic() < deadline:
            time.sleep(0.01)
        (seen,) = queue.workers_seen.values()
        while (list(queue.workers_seen.values()) == [seen]
               and time.monotonic() < deadline):
            time.sleep(0.01)
        os.kill(pid, signal.SIGKILL)
        start = time.monotonic()
        values = fabric.run([OkPoint(token="next")])
        elapsed = time.monotonic() - start
    assert values == [{"token": "next", "squared": 16}]
    assert elapsed < 10.0, elapsed
    assert fabric.stats.pool_respawns >= 1


@pytest.mark.chaos
def test_worker_crashing_point_fails_without_waiting_for_leases(tmp_path):
    """A point that kills every worker that runs it is FAILED as poison
    after ``max_recoveries`` respawns, at the default 30 s lease, as
    soon as the pool would report the crash — not four lapsed leases
    later."""
    start = time.monotonic()
    with FabricRunner(workers=2, spawn="process",
                      state_dir=tmp_path / "fab") as fabric:
        with pytest.raises(RunnerError,
                           match="failed after 4 dead-worker recoveries"):
            fabric.run([CrashPoint(token="boom")])
    assert time.monotonic() - start < 20.0
