"""The PR's acceptance gate: all three fault planes at once.

A seeded :class:`ChaosSchedule` drives transport flaps (drops and
injected 503s at every worker), one ENOSPC episode on the disk under
the coordinator's journal + result cache, and one worker SIGKILL —
concurrently, against a 50-point fabric sweep.  The sweep must finish
with results byte-identical to a fault-free serial run, the
coordinator's health must pass through ``degraded`` and come back to
``ok``, and the lease journal must never double a completion.
"""

import json
import multiprocessing
import pickle
import threading
import time

import pytest

from repro.chaos import (
    ChaosFS,
    ChaosSchedule,
    ChaosTransport,
    DiskFull,
    ProcessChaos,
    TransportFlap,
    WorkerKill,
    kill_pid,
)
from repro.fabric import FabricRunner, HttpTransport, ItemState
from repro.fabric.health import Health
from repro.runner import Runner
from repro.runner.cache import ResultCache

from tests.fabric._points import OkPoint

SEED = 20260807

#: One schedule, shared (by value) between the coordinator harness and
#: every worker process — the whole run replays from this + SEED.
SCHEDULE = ChaosSchedule.of(
    # Transport plane: a drop storm and a 503 burst at each worker's
    # request stream (each worker counts its own ops).
    TransportFlap(start_op=4, count=6, probability=0.6, mode="drop"),
    TransportFlap(start_op=20, count=5, probability=0.5, mode="error",
                  status=503),
    # Filesystem plane: an ENOSPC episode mid-sweep, after the 50
    # enqueue appends — it lands on lease grants, result-cache puts
    # and/or completion records, whichever the interleaving reaches.
    DiskFull(start_op=60, count=6),
    # Process plane: SIGKILL whichever worker holds a lease once five
    # points have completed.
    WorkerKill(after_done=5),
    seed=SEED,
)


def _worker_main(url: str, name: str, schedule_json: str) -> None:
    """Child body: a pull worker whose transport flaps per schedule."""
    from repro.fabric import FabricClient, FabricWorker

    schedule = ChaosSchedule.from_json(schedule_json)
    transport = ChaosTransport(
        HttpTransport(url, timeout_s=10.0, retries=2), schedule)
    FabricWorker(FabricClient(transport), worker=name, poll_s=0.02,
                 lease_error_limit=10).run_forever()


@pytest.fixture(autouse=True)
def _obs_sandbox():
    """A fresh emitter per run, with no ``REPRO_OBS*`` leakage."""
    import os

    from repro.obs import reset_emitter

    saved = {key: os.environ.pop(key, None)
             for key in ("REPRO_OBS", "REPRO_OBS_DIR")}
    reset_emitter()
    try:
        yield
    finally:
        reset_emitter()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@pytest.mark.chaos
def test_three_plane_chaos_sweep_is_byte_identical(tmp_path):
    from repro.obs import configure

    # Every process in the run (this harness, which hosts the
    # coordinator, and the forked workers) logs obs events here — the
    # evidence the observability gate at the bottom greps.
    obs_dir = tmp_path / "obs"
    configure(obs_dir)

    points = [OkPoint(token=f"pt{i:02d}", delay_s=0.02) for i in range(50)]
    serial = Runner(workers=0).run(list(points))

    chaos_fs = ChaosFS(SCHEDULE)
    fabric = FabricRunner(workers=3, spawn=None,
                          state_dir=tmp_path / "fab",
                          lease_s=1.0, poll_s=0.02, fs=chaos_fs)
    # The shared result cache sits on the same faulty disk and shares
    # the coordinator's health, so an ENOSPC on either surface shows
    # on /v1/fabric/healthz.
    health = fabric.coordinator.queue.health
    fabric.coordinator.cache = ResultCache(
        directory=tmp_path / "cache", fs=chaos_fs, health=health)

    health_states = set()
    real_degrade = health.degrade

    def recording_degrade(key, detail):
        health_states.add(Health.DEGRADED)
        real_degrade(key, detail)

    health.degrade = recording_degrade

    url = fabric.start()
    ctx = multiprocessing.get_context("fork")
    procs = {}
    for i in range(3):
        name = f"chaos:{i}"
        proc = ctx.Process(target=_worker_main,
                           args=(url, name, SCHEDULE.to_json()),
                           daemon=True)
        proc.start()
        procs[name] = proc

    def pick_leased_worker():
        for item in fabric.coordinator.queue.items():
            if item.state == ItemState.LEASED and item.worker in procs:
                if procs[item.worker].is_alive():
                    return item.worker
        return None

    process_chaos = ProcessChaos(
        SCHEDULE,
        kill=lambda name: (name is not None
                           and kill_pid(procs[name].pid)))

    results = {}
    driver = threading.Thread(
        target=lambda: results.update(values=fabric.run(list(points))),
        daemon=True)
    driver.start()

    deadline = time.monotonic() + 120.0
    while driver.is_alive() and time.monotonic() < deadline:
        done = sum(1 for item in fabric.coordinator.queue.items()
                   if item.state == ItemState.DONE)
        process_chaos.poll(done, pick=pick_leased_worker)
        time.sleep(0.02)
    driver.join(timeout=1.0)
    assert not driver.is_alive(), "sweep did not survive the chaos run"

    # Every scheduled fault actually landed.
    assert chaos_fs.injected >= 1, "the ENOSPC episode never fired"
    assert process_chaos.done, "the SIGKILL never fired"
    assert any(not proc.is_alive() for proc in procs.values()), \
        "no worker process actually died"

    # Degraded was entered... and left: the endpoint reports ok again.
    assert Health.DEGRADED in health_states
    doc = HttpTransport(url, timeout_s=10.0).json(
        "GET", "/v1/fabric/healthz")
    assert doc["status"] == "ok"
    assert doc["health"]["reasons"] == {}

    # Byte-identical to the fault-free serial run, point for point.
    assert [pickle.dumps(v) for v in results["values"]] == \
        [pickle.dumps(v) for v in serial]

    # The audit journal may have lost appends to ENOSPC (that is the
    # degrade-and-proceed contract) but must never double a completion.
    journal = tmp_path / "fab" / "fabric.jsonl"
    events = [json.loads(line)
              for line in journal.read_text().splitlines()]
    done_ids = [e["id"] for e in events if e["event"] == "point_done"]
    assert len(done_ids) == len(set(done_ids))

    fabric.close()
    for proc in procs.values():
        proc.join(timeout=10.0)

    # Observability gate: every fault plane that fired announced
    # itself on the event log as a correlated ``chaos_injected``
    # record — each traceable by a non-empty request_id (the one the
    # enclosing request had bound, or one minted at injection time).
    from repro.obs import emitter

    emitter().close()
    records = []
    for path in sorted(obs_dir.glob("events-*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    injected = [r for r in records if r.get("event") == "chaos_injected"]
    assert {r.get("plane") for r in injected} >= \
        {"transport", "fs", "process"}
    assert all((r.get("ctx") or {}).get("request_id") for r in injected)
    # Entering DEGRADED also dumped the flight recorder next to the log.
    assert (obs_dir / "flight-recorder.jsonl").exists()
