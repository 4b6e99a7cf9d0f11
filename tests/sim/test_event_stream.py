"""Exactness gate: the kernel's event stream, hashed.

Speed work on the simulator (kernel, link model, MPI, runtime, trainer)
must not move simulated behaviour at all: the same events, of the same
types, scheduled and dispatched in the same order at the same times.
Comparing ``events_scheduled`` counts cannot see a reordering; these
digests can.

Each scenario runs with an observation-only monitor on
``Environment.monitor`` that hashes

* every scheduled event: type name, ``now`` and ``delay``;
* every dispatched event: type name, ``now`` and the queue depth left;

and, separately, the run's outputs (statistics, timeline, link
utilization, fault report).  Outputs are hashed as ``repr`` text, which
round-trips floats exactly and, unlike pickle bytes, does not depend on
the Python or numpy version.

The 12-GPU scenarios run without compute jitter, so every rank reaches
each barrier in lock step.  ``default_24_jitter`` doubles the node
count and adds per-rank jitter: ranks then submit, and their sends
start, at distinct instants, which is where a change to the order of
same-instant events shows up in the outputs.  ``default_132_jitter``
is the paper's scale with the same jitter: about 150 events are
pending on average (the others keep 5–32), so events due at the
instant they are scheduled and events due later interleave the most.

The outputs digests were recorded before the kernel's hot path was
optimised (12-GPU scenarios), before per-(rank, tensor) completion
events left the Horovod runtime (24-GPU) and before same-instant
events left the kernel's heap (132-GPU, both digests).  Removing those events was
a deliberate change to the event stream, so the stream digests were
re-recorded then; no outputs digest moved.  A mismatch means simulated
behaviour changed; only a deliberate behaviour change may re-record
them::

    PYTHONPATH=src python tests/sim/test_event_stream.py --regen
    PYTHONPATH=src python tests/sim/test_event_stream.py --counts

``--regen`` prints the current digests; ``--counts`` prints each
scenario's scheduled events: how many were due at the instant they were
scheduled (zero delay: the kernel queues them in a FIFO, not its heap)
and how many later, by event type; the mean number of events already
pending when one is scheduled; and the events by type and by the
process that scheduled them (``-`` for events scheduled outside any
process, e.g. from another event's callback).
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter

import pytest

from repro.core import sweep
from repro.core.knobs import paper_default_config, paper_tuned_config
from repro.faults import FaultSchedule, LinkFlap, RankCrash, StragglerGPU

#: scenario -> (event-stream digest, outputs digest), SHA-256 hex.
EXPECTED = {
    "default_12": (
        "e9394239c875a909461a01dd21163afae3f11e919c0f2440c458604492f09989",
        "63b15defcf01ae66c3a2e7a2dae14614e0b2a1a13b4eb66f37791a4e1bc17972"),  # 60779 events
    "tuned_12": (
        "3480d580b9f0806e3f623aabf6eeb0700f5d8222b72f9442da3d40791000b545",
        "e39a6fa0fecc49bd669b053bc52bb66650798b274f5a8dc5d0175500a8fd483c"),  # 63862 events
    "faulted_12": (
        "bea4d8cc2fe290736f3be31096eb9c2979005d012b2914fdccbf4aed6fb75183",
        "13b4c759989bf03c9c9c0290c8c66f811a6cc42a4fba3ee5eb48541d3ff2c949"),  # 25088 events
    "osu_allreduce_12": (
        "7f13ee35555a53f76c62d5c4a8863ce845516df9a98350f36988cb0ba4247652",
        "ec8b75e2c328dbb7f217603e309f6ad500c99a4f4943fb203917737b86685aec"),  # 6078 events
    "default_24_jitter": (
        "d78a6ea6b3442dddb0f1b9b07cb9bf530da1829381331650d9f24d73c3b60b59",
        "02f19350f17e0267a6e8d76b95148683be5f9068983664deffa7af0c5142830c"),  # 72657 events
    "default_132_jitter": (
        "7579fff4d67653f9f9e93a289d2158793f5176b6f36c1c49a9ca986f0f27e901",
        "3c1b1a2289c6c4e0915a1b9325d9fb1ddd8ed7503502054e2d8572675e0973a8"),  # 167069 events
}


class StreamHash:
    """Monitor hashing every scheduled and dispatched kernel event."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.scheduled = 0
        self.dispatched = 0
        #: Scheduled events by (event type, scheduling process name).
        self.counts: Counter[tuple[str, str]] = Counter()
        #: Scheduled events by (event type, due at the instant scheduled).
        self.due_now: Counter[tuple[str, bool]] = Counter()
        #: Events already pending, summed over every scheduling.
        self.pending = 0

    def on_schedule(self, env, event, delay) -> None:
        self.pending += self.scheduled - self.dispatched
        self.scheduled += 1
        proc = env.active_process
        self.counts[type(event).__name__,
                    proc.name if proc is not None else "-"] += 1
        self.due_now[type(event).__name__, delay == 0] += 1
        self._sha.update(
            f"S {type(event).__name__} {float(env.now)!r} {float(delay)!r}\n"
            .encode())

    def on_step(self, env, event, depth) -> None:
        self.dispatched += 1
        self._sha.update(
            f"D {type(event).__name__} {float(env.now)!r} {depth}\n".encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _outputs_digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _measure(monkeypatch, config, gpus=12, iterations=2, jitter_std=0.0,
             **kwargs):
    """``measure_training`` with a hashing kernel monitor."""
    stream = StreamHash()
    environment = sweep.Environment

    def monitored(*args, **kw):
        env = environment(*args, **kw)
        env.monitor = stream
        return env

    monkeypatch.setattr(sweep, "Environment", monitored)
    m = sweep.measure_training(gpus, config, iterations=iterations,
                               jitter_std=jitter_std, seed=0, **kwargs)
    outputs = _outputs_digest(
        dataclasses.asdict(m.stats),
        dataclasses.asdict(m.runtime_stats),
        [dataclasses.astuple(ev) for ev in m.timeline.events],
        m.link_utilization,
        m.fault_report,
    )
    return stream, outputs, m


def run_default_12(monkeypatch):
    # Spectrum MPI defaults: recursive doubling, rendezvous above eager.
    return _measure(monkeypatch, paper_default_config())


def run_tuned_12(monkeypatch):
    # MVAPICH2-GDR with hierarchical allreduce and 128 MiB fusion.
    return _measure(monkeypatch, paper_tuned_config())


def run_faulted_12(monkeypatch):
    # The golden trace's straggler + crash under a negotiation deadline,
    # plus a fast-flapping rail: some transfers find the route down up
    # front, others find it down only after queueing for the links and
    # take the release-and-raise path.
    cfg = paper_default_config()
    cfg = dataclasses.replace(cfg, horovod=cfg.horovod.with_(
        cycle_time_s=50e-3, negotiation_deadline_s=0.2, suspect_retries=1,
    ))
    schedule = FaultSchedule.of(
        StragglerGPU(rank=1, start_s=1.0, duration_s=1.0, slowdown=2.0),
        RankCrash(rank=2, start_s=2.5),
        LinkFlap(link=("nic:0:0", "switch:-1:1"), start_s=0.5,
                 duration_s=2.0, period_s=0.0137, down_s=0.0031),
    )
    return _measure(monkeypatch, cfg, iterations=3, schedule=schedule)


def run_default_24_jitter(monkeypatch):
    # Four nodes, 3% lognormal compute jitter, one measured iteration.
    return _measure(monkeypatch, paper_default_config(), gpus=24,
                    iterations=1, warmup_iterations=0, jitter_std=0.03)


def run_default_132_jitter(monkeypatch):
    # The paper's 132 GPUs (22 nodes), 3% jitter, one measured iteration:
    # about 150 events pending on average, where events due now and
    # events due later interleave the most.
    return _measure(monkeypatch, paper_default_config(), gpus=132,
                    iterations=1, warmup_iterations=0, jitter_std=0.03)


def run_osu_allreduce_12(monkeypatch):
    from repro.cluster import Fabric, build_summit
    from repro.mpi.communicator import Comm
    from repro.mpi.libraries import MVAPICH2_GDR
    from repro.mpi.osu import osu_allreduce
    from repro.sim import Environment

    stream = StreamHash()
    env = Environment()
    env.monitor = stream
    topo = build_summit(env, nodes=2)
    comm = Comm(Fabric(topo), topo.gpus(), MVAPICH2_GDR)
    result = osu_allreduce(comm, 4 << 20, iterations=3)
    outputs = _outputs_digest(
        dataclasses.asdict(result),
        dataclasses.asdict(comm.fabric.stats),
        comm.fabric.utilization_report(),
        comm.messages_sent,
    )
    return stream, outputs, result


SCENARIOS = {
    "default_12": run_default_12,
    "tuned_12": run_tuned_12,
    "faulted_12": run_faulted_12,
    "osu_allreduce_12": run_osu_allreduce_12,
    "default_24_jitter": run_default_24_jitter,
    "default_132_jitter": run_default_132_jitter,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_stream_unchanged(monkeypatch, name):
    stream, outputs, _ = SCENARIOS[name](monkeypatch)
    assert stream.scheduled == stream.dispatched
    assert (stream.hexdigest(), outputs) == EXPECTED[name], (
        f"{name}: {stream.scheduled} events scheduled")


def test_faulted_run_exercises_failure_handling(monkeypatch):
    """The faulted scenario really retries transfers, suspects a
    straggler and evicts the crashed rank, so its digest guards the
    failure-handling code too."""
    _, _, m = run_faulted_12(monkeypatch)
    report = m.fault_report
    assert report["transfer_retries"] > 0
    assert report["rank_crashes"] == 1
    assert report["suspects_cleared"] >= 1


def print_counts(name: str, stream: StreamHash) -> None:
    """One scenario's scheduled events: due now or later, by type, and
    by type and scheduling process."""
    total = stream.scheduled
    now = sum(n for (_, due), n in stream.due_now.items() if due)
    print(f"{name}: {total} events scheduled, {now:,} ({now / total:.1%})"
          f" due now, {total - now:,} later;"
          f" {stream.pending / total:.1f} pending on average")
    print(f"  {'due now':>9}  {'later':>9}  type")
    for kind in sorted({kind for kind, _ in stream.due_now}):
        print(f"  {stream.due_now[kind, True]:>9,}"
              f"  {stream.due_now[kind, False]:>9,}  {kind}")
    print(f"  {'events':>9}  {'share':>6}  type         process")
    for (kind, proc), n in sorted(stream.counts.items(),
                                  key=lambda item: (-item[1], item[0])):
        print(f"  {n:>9,}  {n / total:6.1%}  {kind:<12} {proc}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv or "--counts" in sys.argv:
        mp = pytest.MonkeyPatch()
        for key, fn in SCENARIOS.items():
            with mp.context() as patch:
                stream, outputs, _ = fn(patch)
            if "--counts" in sys.argv:
                print_counts(key, stream)
            else:
                print(f'    "{key}": (\n        "{stream.hexdigest()}",\n'
                      f'        "{outputs}"),  # {stream.scheduled} events')
    else:
        print(__doc__)
