"""The simulated communicator: point-to-point semantics + collective driver.

:class:`Comm` binds a set of GPU devices (one per rank, in topology order)
to an :class:`~repro.mpi.libraries.MPILibrary` profile over a
:class:`~repro.cluster.fabric.Fabric`.  It provides:

* ``isend`` / ``recv`` with (source, tag) matching, eager/rendezvous
  protocol selection, and per-(src, dst, tag) FIFO ordering;
* an ``allreduce`` driver that spawns one process per rank running the
  selected collective algorithm (see :mod:`repro.mpi.collectives`);
* the linear-gather + binomial-broadcast control-plane primitives the
  Horovod coordinator uses for tensor negotiation.

Protocol model
--------------
Messages at or below the library's eager threshold start moving
immediately.  Larger messages use rendezvous: the sender blocks until the
receiver has posted a matching receive, then pays the library's RTS/CTS
round-trip before the payload moves.  This is what makes late receivers
(stragglers) delay senders — the effect Horovod's negotiation phase exists
to avoid.

Usage discipline: at most one outstanding message per (src, dst, tag)
triple — the collectives use per-step tags to guarantee it.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.fabric import Fabric, LinkDownError
from repro.cluster.topology import Device
from repro.mpi.libraries import MPILibrary
from repro.mpi.payload import PayloadOps, ops_for
from repro.sim import Environment, Event, Process

__all__ = ["CollCtx", "Comm", "TransferTimeout"]


class TransferTimeout(RuntimeError):
    """A point-to-point transfer exhausted its retry/timeout budget.

    Raised by the sender when every retry of a transfer found its route
    down and the accumulated backoff exceeded the communicator's
    ``transfer_timeout_s`` — the MPI-level symptom of a link that flapped
    down and never came back."""

#: Tag stride reserved per collective invocation (must exceed the tag span
#: any single algorithm uses; ring uses 2p, hierarchical uses 3 blocks).
TAG_BLOCK = 1 << 20


@dataclass
class _Mailbox:
    """Per-rank matching state: arrivals, posted receives, RTS waiters."""

    arrivals: dict[tuple[int, int], deque] = field(default_factory=dict)
    recv_waiters: dict[tuple[int, int], deque] = field(default_factory=dict)
    posted: dict[tuple[int, int], int] = field(default_factory=dict)
    rts_waiters: dict[tuple[int, int], deque] = field(default_factory=dict)


class Comm:
    """An MPI-like communicator over simulated GPUs.

    Parameters
    ----------
    fabric:
        The cluster data-movement service.
    devices:
        One GPU :class:`~repro.cluster.topology.Device` per rank; rank
        order is the list order.
    library:
        MPI library performance profile.
    """

    def __init__(self, fabric: Fabric, devices: list[Device], library: MPILibrary,
                 retry_backoff_s: float = 100e-6,
                 transfer_timeout_s: float = 5.0) -> None:
        if not devices:
            raise ValueError("communicator needs at least one rank")
        if len(set(devices)) != len(devices):
            raise ValueError("duplicate devices in communicator")
        if retry_backoff_s <= 0 or transfer_timeout_s <= 0:
            raise ValueError("retry backoff and transfer timeout must be > 0")
        self.fabric = fabric
        self.env: Environment = fabric.env
        self.devices = list(devices)
        self.library = library
        #: First retry wait after a transfer finds its route down; doubles
        #: on every consecutive failed attempt of the same transfer.
        self.retry_backoff_s = retry_backoff_s
        #: Total backoff budget per transfer before :class:`TransferTimeout`.
        self.transfer_timeout_s = transfer_timeout_s
        self._mailboxes = [_Mailbox() for _ in devices]
        self._tags = itertools.count()
        #: Optional telemetry hook (``on_allreduce(algorithm, nbytes,
        #: ranks, seconds)``) — see :class:`repro.telemetry.TelemetryProbe`.
        self.probe: Any = None
        #: Optional span recorder (``repro.trace``); observation only.
        self.tracer: Any = None
        #: Number of point-to-point messages sent (control + data).
        self.messages_sent = 0
        #: Transfers that found a down link and backed off before retrying.
        self.transfer_retries = 0
        #: Transfers abandoned after exhausting the retry budget.
        self.transfer_timeouts = 0

    @property
    def size(self) -> int:
        """Number of ranks."""
        return len(self.devices)

    def node_of(self, rank: int) -> int:
        """Physical node hosting ``rank``."""
        return self.devices[rank].node

    def ranks_by_node(self) -> dict[int, list[int]]:
        """Mapping node id -> ranks on that node (ascending)."""
        groups: dict[int, list[int]] = {}
        for rank, dev in enumerate(self.devices):
            groups.setdefault(dev.node, []).append(rank)
        return groups

    def fresh_tag_block(self) -> int:
        """Reserve a tag block for one collective invocation."""
        return next(self._tags) * TAG_BLOCK

    # -- point to point ----------------------------------------------------
    def isend(self, src: int, dst: int, payload: Any, tag: int) -> Process:
        """Send ``payload`` from ``src`` to ``dst``; completes at delivery."""
        self._check_rank(src)
        self._check_rank(dst)
        self.messages_sent += 1
        return self.env.process(self._send_proc(src, dst, payload, tag))

    def recv(self, rank: int, src: int, tag: int) -> Event:
        """An event firing with the payload of the matching message."""
        self._check_rank(rank)
        self._check_rank(src)
        mb = self._mailboxes[rank]
        key = (src, tag)
        arrived = mb.arrivals.get(key)
        if arrived:
            ev = Event(self.env)
            ev.succeed(arrived.popleft())
            if not arrived:
                del mb.arrivals[key]
            return ev
        # Post the receive: release a rendezvous sender if one is waiting.
        rts = mb.rts_waiters.get(key)
        if rts:
            rts.popleft().succeed()
            if not rts:
                del mb.rts_waiters[key]
        else:
            mb.posted[key] = mb.posted.get(key, 0) + 1
        ev = Event(self.env)
        mb.recv_waiters.setdefault(key, deque()).append(ev)
        return ev

    def _send_proc(self, src: int, dst: int, payload: Any, tag: int):
        ops = ops_for(payload)
        nbytes = ops.nbytes(payload)
        key = (src, tag)
        if src == dst:
            self._deposit(dst, key, payload)
            return 0.0
        lib = self.library
        mb = self._mailboxes[dst]
        if lib.uses_rendezvous(nbytes):
            if mb.posted.get(key, 0) > 0:
                mb.posted[key] -= 1
                if not mb.posted[key]:
                    del mb.posted[key]
            else:
                ready = Event(self.env)
                mb.rts_waiters.setdefault(key, deque()).append(ready)
                yield ready
            yield self.env.timeout(lib.rendezvous_rtt_s)
        src_dev, dst_dev = self.devices[src], self.devices[dst]
        same = self.fabric.topology.same_node(src_dev, dst_dev)
        # Retry-with-backoff: a route through a flapped-down link fails
        # fast; the sender sleeps (exponentially longer each attempt) and
        # retries until the link recovers or the timeout budget runs out.
        attempt = 0
        waited = 0.0
        while True:
            try:
                elapsed = yield from self.fabric.transfer_gen(
                    src_dev,
                    dst_dev,
                    nbytes,
                    extra_latency=lib.sw_latency(same),
                    bandwidth_derate=lib.bw_derate(same),
                )
                break
            except LinkDownError as down:
                backoff = self.retry_backoff_s * (2 ** attempt)
                if waited + backoff > self.transfer_timeout_s:
                    self.transfer_timeouts += 1
                    raise TransferTimeout(
                        f"transfer {src}->{dst} ({nbytes} B) gave up after "
                        f"{attempt} retries / {waited:.3f}s backoff: {down}"
                    ) from down
                self.transfer_retries += 1
                attempt += 1
                waited += backoff
                yield self.env.timeout(backoff)
        self._deposit(dst, key, payload)
        return elapsed

    def _deposit(self, dst: int, key: tuple[int, int], payload: Any) -> None:
        mb = self._mailboxes[dst]
        waiters = mb.recv_waiters.get(key)
        if waiters:
            waiters.popleft().succeed(payload)
            if not waiters:
                del mb.recv_waiters[key]
        else:
            mb.arrivals.setdefault(key, deque()).append(payload)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")

    # -- collectives ---------------------------------------------------------
    def allreduce(
        self,
        payloads: list[Any],
        algorithm: str | None = None,
        average: bool = False,
        ranks: list[int] | None = None,
    ) -> Process:
        """Allreduce one payload per rank; completes with the result list.

        ``algorithm`` overrides the library's size-based selection
        (``"ring"``, ``"recursive_doubling"``, ``"rabenseifner"``,
        ``"tree"``, ``"hierarchical"``).  With ``average`` the sum is
        scaled by ``1/participants`` (Horovod's default reduction).

        ``ranks`` restricts the collective to a subgroup of world ranks
        (``payloads[i]`` belongs to ``ranks[i]``) — the elastic-shrink
        path the Horovod runtime uses after a confirmed rank crash runs
        over the surviving subgroup without building a new communicator.
        """
        group = list(range(self.size)) if ranks is None else list(ranks)
        if not group:
            raise ValueError("allreduce needs at least one participating rank")
        if len(set(group)) != len(group):
            raise ValueError(f"duplicate ranks in allreduce subgroup {group}")
        for r in group:
            self._check_rank(r)
        if len(payloads) != len(group):
            raise ValueError(f"expected {len(group)} payloads, got {len(payloads)}")
        return self.env.process(self._allreduce_proc(payloads, algorithm, average, group))

    def _allreduce_proc(self, payloads, algorithm, average, group):
        from repro.mpi.collectives import get_algorithm

        ops = ops_for(payloads[0])
        nbytes = ops.nbytes(payloads[0])
        name = algorithm or self.library.allreduce_algorithm(nbytes, len(group))
        fn = get_algorithm(name)
        ctx = CollCtx(self, ops, self.fresh_tag_block(), group)
        started_s = self.env.now
        cspan = None
        if self.tracer is not None:
            cspan = self.tracer.begin(
                "COLLECTIVE", name, started_s, parent=self.tracer.comm_parent,
                bytes=int(nbytes), ranks=len(group))
            gens = [self.tracer.wrap_alg(fn(ctx, g, payloads[g]), group[g],
                                         cspan, name)
                    for g in range(len(group))]
        else:
            gens = [fn(ctx, g, payloads[g]) for g in range(len(group))]
        procs = [self.env.process(gen) for gen in gens]
        yield self.env.all_of(procs)
        if cspan is not None:
            self.tracer.end(cspan, self.env.now)
        if self.probe is not None:
            self.probe.on_allreduce(
                name, nbytes, len(group), self.env.now - started_s
            )
        results = [p.value for p in procs]
        if average:
            results = [ops.scale(r, 1.0 / len(group)) for r in results]
        return results

    # -- control plane (Horovod negotiation) ---------------------------------
    def gather_linear(self, payloads: list[Any], root: int = 0) -> Process:
        """Linear gather to ``root`` (Horovod's worker→coordinator pattern).

        Every non-root rank sends its payload directly to the root; the
        root receives all of them.  Completes with the list of payloads in
        rank order.  Linear because that is what Horovod's coordinator
        actually does — and why negotiation cost grows linearly in ranks.
        """
        return self.env.process(self._gather_linear_proc(payloads, root))

    def _gather_linear_proc(self, payloads, root):
        tag = self.fresh_tag_block()
        sends = [
            self.isend(r, root, payloads[r], tag + r)
            for r in range(self.size)
            if r != root
        ]
        recvs = [
            self.recv(root, r, tag + r) for r in range(self.size) if r != root
        ]
        yield self.env.all_of(sends + recvs)
        out = list(payloads)
        idx = 0
        for r in range(self.size):
            if r != root:
                out[r] = recvs[idx].value
                idx += 1
        return out

    def control_round_seconds(self, per_rank_bytes: int, cached: bool = False) -> float:
        """Closed-form cost of one Horovod negotiation round.

        Models the linear gather of tiny eager control messages into rank
        0 (bounded by the slowest sender's latency plus serialization at
        rank 0's most-shared ingress link) followed by a binomial-tree
        response broadcast.  With ``cached`` (the bitvector fast path)
        only the broadcast is paid.

        The message-level simulation (``negotiation="messages"`` on the
        runtime) is the ground truth; tests pin this formula to it.
        """
        if per_rank_bytes < 0:
            raise ValueError("per_rank_bytes must be >= 0")
        lib = self.library
        if self.size == 1:
            return lib.sw_latency_intra_s
        if not hasattr(self, "_control_profile"):
            topo = self.fabric.topology
            root_dev = self.devices[0]
            alphas = []
            ingress_counts: dict[int, tuple[Any, int]] = {}
            for rank in range(1, self.size):
                dev = self.devices[rank]
                same = topo.same_node(dev, root_dev)
                alphas.append(topo.route_latency(dev, root_dev) + lib.sw_latency(same))
                last = topo.route(dev, root_dev)[-1]
                link, count = ingress_counts.get(last.order_key, (last, 0))
                ingress_counts[last.order_key] = (link, count + 1)
            self._control_profile = (max(alphas), list(ingress_counts.values()))
        alpha_max, ingress = self._control_profile
        serial = max(
            count * (link.latency_s + per_rank_bytes / link.bandwidth_Bps)
            for link, count in ingress
        )
        bcast = math.ceil(math.log2(self.size)) * alpha_max
        if cached:
            return bcast
        return alpha_max + serial + bcast

    def bcast(self, payload: Any, root: int = 0) -> Process:
        """Binomial-tree broadcast from ``root``; completes with per-rank copies."""
        return self.env.process(self._bcast_proc(payload, root))

    def _bcast_proc(self, payload, root):
        from repro.mpi.collectives.tree import binomial_bcast

        ops = ops_for(payload)
        ctx = CollCtx(self, ops, self.fresh_tag_block(), list(range(self.size)))
        # Rotate so the tree is rooted at `root` in group-rank space.
        order = [(root + i) % self.size for i in range(self.size)]
        ctx = CollCtx(self, ops, ctx.tag, order)
        procs = [
            self.env.process(
                binomial_bcast(ctx, g, payload if order[g] == root else None)
            )
            for g in range(self.size)
        ]
        yield self.env.all_of(procs)
        results = [None] * self.size
        for g, p in enumerate(procs):
            results[order[g]] = p.value
        return results


@dataclass
class CollCtx:
    """Execution context handed to collective algorithms.

    Algorithms address *group ranks* ``0..size-1``; ``ranks`` maps them to
    world ranks, which lets hierarchical collectives run sub-collectives on
    arbitrary subgroups without building new communicators.
    """

    comm: Comm
    ops: PayloadOps
    tag: int
    ranks: list[int]

    @property
    def size(self) -> int:
        """Number of group ranks."""
        return len(self.ranks)

    @property
    def env(self) -> Environment:
        """The simulation environment."""
        return self.comm.env

    def isend(self, gsrc: int, gdst: int, payload: Any, tag: int) -> Process:
        """Send between group ranks (translated to world ranks)."""
        return self.comm.isend(self.ranks[gsrc], self.ranks[gdst], payload, tag)

    def recv(self, grank: int, gsrc: int, tag: int) -> Event:
        """Receive between group ranks (translated to world ranks)."""
        return self.comm.recv(self.ranks[grank], self.ranks[gsrc], tag)

    def node_of(self, grank: int) -> int:
        """Physical node of a group rank."""
        return self.comm.node_of(self.ranks[grank])

    def subctx(self, granks: list[int], tag_offset: int) -> "CollCtx":
        """A context for a subgroup, with a disjoint tag subspace."""
        return CollCtx(
            self.comm,
            self.ops,
            self.tag + tag_offset,
            [self.ranks[g] for g in granks],
        )
