"""Timed point-to-point transfers over a topology.

:class:`Fabric` turns a :class:`~repro.cluster.topology.Topology` into an
executable data-movement service: ``fabric.transfer(src, dst, nbytes)``
returns a simulation process that occupies every link on the route for the
wormhole (cut-through) transfer time

    T = Σ link latencies + extra_latency + nbytes / (min link bandwidth × derate)

Contention is modeled by link serialization: a transfer must acquire all
route links (in canonical global order, which makes deadlock impossible)
before the clock starts.  This is the flow-level model standard in
collective-algorithm analysis (the α–β model with explicit shared links).

``bandwidth_derate`` is how MPI library profiles express imperfect
pipelining (e.g. host-staged sends through Spectrum MPI achieve ~70–80% of
raw link bandwidth); ``extra_latency`` expresses per-message software
overheads (protocol handshakes, staging-buffer management).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster.topology import Device, Topology
from repro.sim import Environment

__all__ = ["Fabric", "LinkDownError", "TransferStats"]


class LinkDownError(RuntimeError):
    """Raised when a transfer's route crosses a link that is down.

    Flapping-rail fault injection marks links down; senders (the MPI
    layer) catch this and retry with backoff until the link comes back or
    their transfer timeout expires.
    """

    def __init__(self, label: str) -> None:
        super().__init__(f"link {label} is down")
        self.label = label


@dataclass
class TransferStats:
    """Aggregate accounting of everything a fabric has carried."""

    transfers: int = 0
    bytes_moved: int = 0
    seconds_busy: float = 0.0
    #: Per-link-type byte counters, e.g. ``{"nvlink2-gg": ..., "ib-edr": ...}``.
    bytes_by_link_type: dict[str, int] = field(default_factory=dict)

    def record(self, nbytes: int, seconds: float, link_types: list[str]) -> None:
        """Account one completed transfer."""
        self.transfers += 1
        self.bytes_moved += nbytes
        self.seconds_busy += seconds
        for lt in link_types:
            self.bytes_by_link_type[lt] = self.bytes_by_link_type.get(lt, 0) + nbytes


class Fabric:
    """Executable data-movement service over a :class:`Topology`."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.env: Environment = topology.env
        self.stats = TransferStats()
        #: Optional span recorder (``repro.trace``); observation only.
        self.tracer: Any = None

    def transfer_seconds(self, src: Device, dst: Device, nbytes: int,
                         extra_latency: float = 0.0,
                         bandwidth_derate: float = 1.0) -> float:
        """Unloaded (contention-free) transfer time for planning/validation."""
        route = self.topology.route(src, dst)
        if not route:
            return 0.0
        latency = sum(link.latency_s for link in route) + extra_latency
        bottleneck = min(link.bandwidth_Bps for link in route) * bandwidth_derate
        return latency + nbytes / bottleneck

    def utilization_report(self, elapsed_seconds: float | None = None) -> dict[str, dict]:
        """Per-link-type utilization summary.

        Returns ``{link_type: {links, bytes, busy_s, mean_utilization}}``
        over ``elapsed_seconds`` (default: current simulation time).
        This is the view that shows *where* a collective's time went —
        e.g. the per-node EDR rails saturating under the default
        configuration while NVLink sits idle.
        """
        elapsed = self.env.now if elapsed_seconds is None else elapsed_seconds
        report: dict[str, dict] = {}
        for link in self.topology.links():
            entry = report.setdefault(
                link.spec.name,
                {"links": 0, "bytes": 0, "busy_s": 0.0, "mean_utilization": 0.0},
            )
            entry["links"] += 1
            entry["bytes"] += link.bytes_carried
            entry["busy_s"] += link.busy_seconds
        for entry in report.values():
            if elapsed > 0 and entry["links"]:
                entry["mean_utilization"] = min(
                    1.0, entry["busy_s"] / (entry["links"] * elapsed)
                )
        return report

    def transfer(self, src: Device, dst: Device, nbytes: int,
                 extra_latency: float = 0.0,
                 bandwidth_derate: float = 1.0):
        """A simulation process moving ``nbytes`` from ``src`` to ``dst``.

        Yields until the transfer completes; returns the elapsed seconds.
        ``src == dst`` completes immediately with 0.  ``nbytes`` may be 0
        (a pure control message still pays route latency).
        """
        return self.env.process(self.transfer_gen(src, dst, nbytes,
                                                  extra_latency, bandwidth_derate))

    def transfer_gen(self, src: Device, dst: Device, nbytes: int,
                     extra_latency: float = 0.0,
                     bandwidth_derate: float = 1.0):
        """Generator form of :meth:`transfer`, for ``yield from`` embedding.

        Embedding avoids one :class:`~repro.sim.engine.Process` per
        message — the difference between minutes and seconds on
        132-rank collective simulations.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if not 0 < bandwidth_derate <= 1.0:
            raise ValueError(f"bandwidth_derate must be in (0, 1], got {bandwidth_derate}")
        return self._transfer(src, dst, nbytes, extra_latency, bandwidth_derate)

    def _transfer(self, src, dst, nbytes, extra_latency, bandwidth_derate):
        env = self.env
        start = env.now
        info = self.topology.route_info(src, dst)
        if info is None:
            return 0.0
        links = info.links
        for link in links:
            if not link.up:
                raise LinkDownError(link.label)
        duration = (
            info.latency_s
            + extra_latency
            + nbytes / (info.bottleneck_Bps * bandwidth_derate)
        )
        held = []
        # Acquire links in canonical global order (deadlock-free: every
        # transfer holding link k can only be waiting on links > k).
        for link in info.acquire_order:
            req = link.resource.request()
            yield req
            held.append((link, req))
        acquired_at = env.now
        # A link may have flapped down while we queued for the route;
        # release everything and fail so the sender can back off.
        for down in links:
            if not down.up:
                for link, req in held:
                    link.resource.release(req)
                raise LinkDownError(down.label)
        yield env.timeout(duration)
        for link, req in held:
            link.record(nbytes, duration)
            link.resource.release(req)
        elapsed = env.now - start
        self.stats.record(nbytes, elapsed, [l.spec.name for l in links])
        if self.tracer is not None and self.tracer.link_detail:
            self.tracer.on_transfer(src, dst, nbytes, start, acquired_at,
                                    env.now, info)
        return elapsed
