"""The Horovod background coordinator as a discrete-event process.

Faithful to Horovod's MPI-mode control flow:

1. Each rank's training loop calls :meth:`HorovodRuntime.submit` as its
   backward pass produces gradient tensors (Horovod: enqueuing a
   ``TensorTableEntry``).  The call returns an event that fires when the
   *averaged* tensor is back on that rank.
2. A background loop ticks every ``cycle_time``.  If any tensors are
   outstanding it runs a **negotiation** round: a linear gather of request
   metadata to rank 0 plus a broadcast of the response list (with the
   response cache on, previously seen ready-sets skip the gather and only
   pay the small broadcast — Horovod's bitvector path).
3. Tensors that are ready on **all** ranks are packed into fusion groups
   (:func:`repro.horovod.fusion.pack_tensors`) and executed in order:
   pack memcpy → (optional fp16 compress) → allreduce over the simulated
   MPI → (decompress) → unpack memcpy.  Like Horovod's MPI path, the
   background thread blocks while each collective runs.

The runtime works in both payload modes: :class:`VirtualBuffer` for
at-scale timing studies, real numpy arrays for the npnn trainer (where
fusion concatenation/splitting moves actual gradient data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster.gpu import GPUSpec, V100
from repro.horovod.compression import cast_seconds
from repro.horovod.config import HorovodConfig
from repro.horovod.fusion import FusionGroup, PendingTensor, pack_tensors
from repro.horovod.timeline import Timeline
from repro.mpi.communicator import Comm
from repro.mpi.payload import VirtualBuffer
from repro.sim import Environment, Event

__all__ = ["HorovodRuntime", "RuntimeStats"]


@dataclass
class RuntimeStats:
    """Counters the tuning analysis reads after a run."""

    cycles: int = 0
    negotiations: int = 0
    cache_hits: int = 0
    fused_ops: int = 0
    tensors_reduced: int = 0
    bytes_reduced: int = 0
    negotiation_seconds: float = 0.0
    allreduce_seconds: float = 0.0
    memcpy_seconds: float = 0.0
    compression_seconds: float = 0.0
    # -- resilience counters (populated only with a negotiation deadline) --
    #: Ranks that missed the negotiation deadline at least once.
    suspects: int = 0
    #: Suspects that caught up before confirmation (stragglers, not crashes).
    suspects_cleared: int = 0
    #: Confirmed crashes: the communicator shrank past these ranks.
    rank_crashes: int = 0
    #: Ranks elastically re-admitted after a restart.
    rank_restarts: int = 0
    #: Total wall time ranks spent under suspicion (detection latency).
    suspect_seconds: float = 0.0

    @property
    def mean_fusion_size(self) -> float:
        """Average bytes per fused allreduce."""
        return self.bytes_reduced / self.fused_ops if self.fused_ops else 0.0


@dataclass
class _TensorEntry:
    """Per-tensor negotiation state."""

    name: str
    nbytes: int
    payloads: dict[int, Any] = field(default_factory=dict)
    events: dict[int, Event] = field(default_factory=dict)
    first_submit_s: float = 0.0
    #: True once the tensor has been moved to the ready queue.
    queued: bool = False


@dataclass
class _Suspicion:
    """Failure-detector state for one suspected rank."""

    since: float
    retries_left: int
    next_retry_at: float


class HorovodRuntime:
    """One Horovod process group's background engine.

    Parameters
    ----------
    comm:
        The simulated MPI communicator (defines world size and fabric).
    config:
        The ``HOROVOD_*`` knob settings.
    gpu:
        GPU spec used to price fusion-buffer memcpys and casts.
    timeline:
        Optional :class:`Timeline` to record phase spans into.
    control_bytes_per_tensor:
        Size of one tensor's negotiation metadata (name + shape + dtype
        descriptor in real Horovod; 64 B is representative).
    negotiation:
        ``"messages"`` simulates every control message of each round
        (linear gather + broadcast) through the fabric — ground truth but
        O(ranks) events per cycle.  ``"analytic"`` (default) charges the
        closed-form :meth:`repro.mpi.communicator.Comm.control_round_seconds`
        instead; tests pin the two against each other.
    """

    def __init__(self, comm: Comm, config: HorovodConfig,
                 gpu: GPUSpec = V100, timeline: Timeline | None = None,
                 control_bytes_per_tensor: int = 64,
                 negotiation: str = "analytic") -> None:
        if negotiation not in ("messages", "analytic"):
            raise ValueError(f"unknown negotiation mode {negotiation!r}")
        self.negotiation = negotiation
        self.comm = comm
        self.env: Environment = comm.env
        self.config = config
        self.gpu = gpu
        self.timeline = timeline if timeline is not None else Timeline()
        self.control_bytes_per_tensor = control_bytes_per_tensor
        #: Optional telemetry hook (``on_cycle`` / ``on_negotiation`` /
        #: ``on_group`` / ``on_detect``) — see
        #: :class:`repro.telemetry.TelemetryProbe`.
        self.probe: Any = None
        #: Optional span recorder (``repro.trace``); observation only.
        self.tracer: Any = None
        self.stats = RuntimeStats()
        self._entries: dict[str, _TensorEntry] = {}
        self._ready: list[tuple[PendingTensor, frozenset[int]]] = []
        self._response_cache: set[tuple[str, ...]] = set()
        self._shutdown = False
        # -- elastic membership ------------------------------------------------
        #: Ranks currently expected to participate in every tensor.
        self.active: set[int] = set(range(comm.size))
        self._removed: set[int] = set()
        self._crash_reports: set[int] = set()
        self._suspects: dict[int, _Suspicion] = {}
        self._loop = self.env.process(self._coordinator_loop())

    @property
    def size(self) -> int:
        """World size (launch-time; does not shrink with crashes)."""
        return self.comm.size

    @property
    def active_ranks(self) -> list[int]:
        """Currently participating ranks, sorted."""
        return sorted(self.active)

    # -- worker API -----------------------------------------------------------
    def submit(self, rank: int, name: str, payload: Any) -> Event:
        """Enqueue ``payload`` (this rank's gradient tensor ``name``).

        Returns an event that fires with the averaged tensor once the
        fused allreduce containing it completes on this rank.  Submitting
        the same name twice from one rank before completion is an error
        (as in Horovod).
        """
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range")
        nbytes = (
            payload.nbytes if isinstance(payload, (np.ndarray, VirtualBuffer))
            else None
        )
        if nbytes is None:
            raise TypeError(f"unsupported payload type {type(payload).__name__}")
        entry = self._entries.get(name)
        if entry is None:
            entry = _TensorEntry(name, int(nbytes), first_submit_s=self.env.now)
            self._entries[name] = entry
        if rank in entry.payloads:
            raise ValueError(f"rank {rank} already submitted tensor {name!r}")
        if entry.nbytes != int(nbytes):
            raise ValueError(
                f"tensor {name!r} size mismatch across ranks: "
                f"{entry.nbytes} vs {nbytes}"
            )
        entry.payloads[rank] = payload
        event = Event(self.env)
        entry.events[rank] = event
        self._maybe_ready(entry)
        return event

    def shutdown(self) -> None:
        """Ask the coordinator loop to exit at its next tick."""
        self._shutdown = True

    # -- elastic membership API -------------------------------------------------
    def report_crash(self, rank: int) -> None:
        """Out-of-band crash notice (e.g. from a fault injector).

        This is the ground truth the failure detector consults: a suspect
        rank is only removed once its crash has been *reported*, so pure
        stragglers are never evicted, only genuinely dead ranks.
        """
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range")
        self._crash_reports.add(rank)

    def report_restart(self, rank: int) -> None:
        """Re-admit a previously crashed rank into the active set.

        The caller must ensure the rank's stale submissions have drained
        (see :meth:`drain_rank`) before re-admission.
        """
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range")
        if rank in self.active:
            return
        self._removed.discard(rank)
        self._crash_reports.discard(rank)
        self.active.add(rank)
        self.stats.rank_restarts += 1
        self.timeline.record(
            "RECOVER", f"rejoin_rank_{rank}", self.env.now, self.env.now
        )

    def drain_rank(self, rank: int):
        """Generator: wait until no pending tensor holds ``rank``'s payload.

        A restarting rank yields from this before rejoining, so its
        pre-crash submissions (still referenced by in-flight fusion
        groups of the surviving ranks) cannot collide with the fresh
        submissions of its new life.
        """
        while any(rank in e.payloads for e in self._entries.values()):
            yield self.env.timeout(self.config.cycle_time_s)

    def _maybe_ready(self, entry: _TensorEntry) -> None:
        """Queue ``entry`` once every active rank has submitted it."""
        if entry.queued or not self.active <= entry.payloads.keys():
            return
        entry.queued = True
        # Snapshot who takes part: everyone who submitted and is not
        # confirmed dead — a rank that submitted but crashed before the
        # group ran lost its process, so its queued gradient is dropped.
        participants = frozenset(entry.payloads) - self._removed
        self._ready.append(
            (PendingTensor(entry.name, entry.nbytes, self.env.now), participants)
        )

    # -- coordinator -----------------------------------------------------------
    def _coordinator_loop(self):
        while True:
            yield self.env.timeout(self.config.cycle_time_s)
            if self._shutdown:
                return
            self.stats.cycles += 1
            if self.probe is not None:
                self.probe.on_cycle(len(self._entries), len(self._ready))
            if not self._entries:
                continue
            if self.config.negotiation_deadline_s is not None:
                yield from self._failure_detector()
            ready = self._ready
            self._ready = []
            yield from self._negotiate([t for t, _ in ready])
            if not ready:
                continue
            # Tensors sharing a participant set fuse together; distinct
            # sets (mid-shrink transients) reduce as separate subgroups.
            buckets: dict[frozenset[int], list[PendingTensor]] = {}
            for tensor, participants in ready:
                buckets.setdefault(participants, []).append(tensor)
            for participants, tensors in buckets.items():
                if not participants:
                    for tensor in tensors:
                        self._entries.pop(tensor.name, None)
                    continue
                for group in pack_tensors(
                    tensors, self.config.fusion_threshold_bytes
                ):
                    yield from self._execute_group(group, participants)

    # -- failure detector --------------------------------------------------------
    def _failure_detector(self):
        """Deadline scan: suspect → backed-off re-probes → confirm → shrink.

        Runs once per cycle when ``negotiation_deadline_s`` is set.  A
        rank becomes *suspect* when some tensor has waited past the
        deadline without its submission.  Suspects get
        ``suspect_retries`` re-probes with exponential backoff (each
        charged one small cached control round); a suspect whose crash
        was reported (:meth:`report_crash`) is evicted after the last
        probe, shrinking the communicator to the survivors.  Suspects
        that catch up are cleared — a straggler never triggers eviction.
        """
        deadline = self.config.negotiation_deadline_s
        now = self.env.now
        missing: set[int] = set()
        for entry in self._entries.values():
            if entry.queued or now - entry.first_submit_s < deadline:
                continue
            missing |= self.active - entry.payloads.keys()
        for rank in [r for r in self._suspects if r not in missing]:
            info = self._suspects.pop(rank)
            self.stats.suspects_cleared += 1
            self.stats.suspect_seconds += now - info.since
            self.timeline.record("SUSPECT", f"rank_{rank}", info.since, now)
        for rank in sorted(missing):
            info = self._suspects.get(rank)
            if info is None:
                self._suspects[rank] = _Suspicion(
                    since=now,
                    retries_left=self.config.suspect_retries,
                    next_retry_at=now + deadline,
                )
                self.stats.suspects += 1
                continue
            if now < info.next_retry_at:
                continue
            if info.retries_left > 0:
                info.retries_left -= 1
                backoff = deadline * 2 ** (
                    self.config.suspect_retries - info.retries_left
                )
                info.next_retry_at = now + backoff
                # Each re-probe is one small control round to the rank.
                probe_s = self.comm.control_round_seconds(64, cached=True)
                if self.probe is not None:
                    self.probe.on_detect(probe_s)
                yield self.env.timeout(probe_s)
            elif rank in self._crash_reports:
                self._confirm_crash(rank, info)

    def _confirm_crash(self, rank: int, info: _Suspicion) -> None:
        now = self.env.now
        self._suspects.pop(rank, None)
        self.active.discard(rank)
        self._removed.add(rank)
        self.stats.rank_crashes += 1
        self.stats.suspect_seconds += now - info.since
        self.timeline.record("SUSPECT", f"rank_{rank}", info.since, now)
        self.timeline.record(
            "RECOVER", f"shrink_to_{len(self.active)}", info.since, now
        )
        # Tensors that were only waiting on the evicted rank are now ready.
        for entry in self._entries.values():
            self._maybe_ready(entry)

    def _negotiate(self, ready: list[PendingTensor]):
        """One negotiation round: gather requests, broadcast responses."""
        start = self.env.now
        signature = tuple(t.name for t in ready)
        cached = self.config.cache_enabled and signature in self._response_cache
        per_rank = max(
            4, self.control_bytes_per_tensor * max(1, len(self._entries))
        )
        per_rank = (per_rank + 3) // 4 * 4
        if cached and ready:
            # Bitvector path: one small broadcast.
            self.stats.cache_hits += 1
            if self.negotiation == "messages":
                yield self.comm.bcast(VirtualBuffer(64), root=0)
            else:
                yield self.env.timeout(self.comm.control_round_seconds(64, cached=True))
        else:
            if self.negotiation == "messages":
                payloads = [VirtualBuffer(per_rank) for _ in range(self.size)]
                yield self.comm.gather_linear(payloads, root=0)
                yield self.comm.bcast(VirtualBuffer(per_rank), root=0)
            else:
                yield self.env.timeout(self.comm.control_round_seconds(per_rank))
            if ready and self.config.cache_enabled:
                self._response_cache.add(signature)
        self.stats.negotiations += 1
        self.stats.negotiation_seconds += self.env.now - start
        if self.probe is not None:
            self.probe.on_negotiation(self.env.now - start, cached, len(ready))
        self.timeline.record(
            "NEGOTIATE", f"cycle_{self.stats.cycles}", start, self.env.now
        )
        if self.tracer is not None:
            self.tracer.record(
                "NEGOTIATE", f"cycle_{self.stats.cycles}", start, self.env.now,
                cycle=self.stats.cycles, cached=cached, tensors=len(ready))

    # -- data plane --------------------------------------------------------------
    def _execute_group(self, group: FusionGroup, participants: frozenset[int] | None = None):
        if participants is None:
            participants = frozenset(range(self.size))
        ranks = sorted(participants)
        entries = [self._entries.pop(t.name) for t in group.tensors]
        label = entries[0].name if len(entries) == 1 else f"fused_x{len(entries)}"
        numpy_mode = isinstance(entries[0].payloads[ranks[0]], np.ndarray)

        # Queue span: from the moment the group's last tensor became
        # ready on all ranks until execution starts now (cycle wait plus
        # serialization behind earlier groups).
        queued_since = max(t.ready_time for t in group.tensors)
        if self.env.now > queued_since:
            self.timeline.record("QUEUE", label, queued_since, self.env.now)
        if self.probe is not None:
            self.probe.on_group(
                group.nbytes, len(entries), len(ranks),
                self.config.fusion_threshold_bytes,
                max(0.0, self.env.now - queued_since),
            )
        tracer = self.tracer
        gspan = None
        if tracer is not None:
            gspan = tracer.begin(
                "GROUP", label, min(self.env.now, queued_since),
                tensors=len(entries), bytes=int(group.nbytes),
                participants=len(ranks))
            if self.env.now > queued_since:
                tracer.record("QUEUE", label, queued_since, self.env.now,
                              parent=gspan)

        # Pack into the fusion buffer (skipped for singletons, as Horovod
        # skips the copy when a tensor is reduced unfused).
        if len(entries) > 1:
            start = self.env.now
            yield self.env.timeout(2 * group.nbytes / self.gpu.sustained_mem_Bps)
            self.stats.memcpy_seconds += self.env.now - start
            self.timeline.record("MEMCPY_IN", label, start, self.env.now)
            if tracer is not None:
                tracer.record("MEMCPY_IN", label, start, self.env.now,
                              parent=gspan)

        wire_bytes = group.nbytes
        if self.config.compression == "fp16":
            start = self.env.now
            yield self.env.timeout(cast_seconds(group.nbytes, self.gpu.sustained_mem_Bps))
            self.stats.compression_seconds += self.env.now - start
            self.timeline.record("COMPRESS", label, start, self.env.now)
            if tracer is not None:
                tracer.record("COMPRESS", label, start, self.env.now,
                              parent=gspan)
            wire_bytes = group.nbytes // 2

        if numpy_mode:
            fused = [
                np.concatenate([e.payloads[r].ravel() for e in entries])
                for r in ranks
            ]
        else:
            elem = 2 if self.config.compression == "fp16" else 4
            aligned = (wire_bytes + elem - 1) // elem * elem
            fused = [VirtualBuffer(aligned, elem) for _ in ranks]

        start = self.env.now
        algorithm = (
            "hierarchical" if self.config.hierarchical_allreduce
            else self.config.allreduce_algorithm
        )
        subgroup = ranks if len(ranks) < self.size else None
        aspan = None
        if tracer is not None:
            aspan = tracer.begin("ALLREDUCE", label, start, parent=gspan)
            tracer.comm_parent = aspan
        results = yield self.comm.allreduce(
            fused, algorithm=algorithm, average=True, ranks=subgroup
        )
        if aspan is not None:
            tracer.comm_parent = None
            tracer.end(aspan, self.env.now)
        self.stats.allreduce_seconds += self.env.now - start
        self.timeline.record("ALLREDUCE", label, start, self.env.now)

        if self.config.compression == "fp16":
            start = self.env.now
            yield self.env.timeout(cast_seconds(group.nbytes, self.gpu.sustained_mem_Bps))
            self.stats.compression_seconds += self.env.now - start
            self.timeline.record("DECOMPRESS", label, start, self.env.now)
            if tracer is not None:
                tracer.record("DECOMPRESS", label, start, self.env.now,
                              parent=gspan)

        if len(entries) > 1:
            start = self.env.now
            yield self.env.timeout(2 * group.nbytes / self.gpu.sustained_mem_Bps)
            self.stats.memcpy_seconds += self.env.now - start
            self.timeline.record("MEMCPY_OUT", label, start, self.env.now)
            if tracer is not None:
                tracer.record("MEMCPY_OUT", label, start, self.env.now,
                              parent=gspan)
        if gspan is not None:
            tracer.end(gspan, self.env.now)

        self.stats.fused_ops += 1
        self.stats.tensors_reduced += len(entries)
        self.stats.bytes_reduced += group.nbytes

        # Hand each participating rank its averaged tensor back.
        for i, rank in enumerate(ranks):
            if numpy_mode:
                flat = results[i]
                offset = 0
                for e in entries:
                    shape = e.payloads[rank].shape
                    n = e.payloads[rank].size
                    e.events[rank].succeed(flat[offset:offset + n].reshape(shape))
                    offset += n
            else:
                for e in entries:
                    e.events[rank].succeed(VirtualBuffer((e.nbytes + 3) // 4 * 4))

        # Extra submitters — a rank that rejoined after this group's
        # participant snapshot — adopt the group consensus (elastic
        # Horovod semantics: late arrivals take the survivors' average).
        flat0 = results[0] if numpy_mode else None
        offset = 0
        for e in entries:
            n = next(iter(e.payloads.values())).size if numpy_mode else 0
            for rank in sorted(set(e.payloads) - participants - self._removed):
                if e.events[rank].triggered:
                    continue
                if numpy_mode:
                    shape = e.payloads[rank].shape
                    e.events[rank].succeed(flat0[offset:offset + n].reshape(shape))
                else:
                    e.events[rank].succeed(VirtualBuffer((e.nbytes + 3) // 4 * 4))
            offset += n
