"""Cluster topology graph: devices, links, and routing.

The topology is a directed multigraph-free ``networkx.DiGraph`` whose nodes
are :class:`Device` instances (GPUs, CPUs/sockets, NICs, switches) and
whose edges each carry one :class:`~repro.cluster.links.Link`.  Routes are
minimum-latency shortest paths, computed lazily and cached — on the
fat-tree topologies we build, these coincide with the routes a real
subnet manager would program.

Every simulated point builds a fresh topology, so the shortest-path
searches are memoized across instances, keyed by the topology's
construction history: the endpoints, latency and direction of every
:meth:`Topology.add_device` / :meth:`Topology.add_link` call, in order.
Those are all the latency-weighted search reads, including the graph's
insertion order that breaks ties, so two topologies with the same
history get the same routes.  Fault injection changes a link's
bandwidth or up state, never its latency, so it cannot change a route.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.cluster.links import Link, LinkSpec
from repro.sim import Environment

__all__ = ["Device", "RouteInfo", "Topology"]

#: Construction history -> {(src, dst): device path}, shared by every
#: topology built the same way.  Threads simulating concurrently (the
#: service scheduler) may both search a missing path; they store the
#: same value, so no lock is needed.
_PATHS: dict[tuple, dict[tuple["Device", "Device"], list["Device"]]] = {}


def _latency(a, b, data) -> float:
    return data["link"].latency_s


@dataclass(frozen=True)
class RouteInfo:
    """Precomputed per-route quantities for the transfer hot path."""

    links: tuple[Link, ...]
    #: Links re-ordered by global order key (deadlock-free acquisition).
    acquire_order: tuple[Link, ...]
    latency_s: float
    bottleneck_Bps: float


@dataclass(frozen=True, order=True)
class Device:
    """One addressable endpoint or forwarding element in the cluster.

    Attributes
    ----------
    kind:
        ``"gpu"``, ``"cpu"``, ``"nic"``, or ``"switch"``.
    node:
        Hosting node index; ``-1`` for network-side elements (switches).
    index:
        Index within the node (GPU 0–5, socket 0–1, rail 0–1) or the
        switch's global index.
    """

    kind: str
    node: int
    index: int

    def __str__(self) -> str:
        return f"{self.kind}:{self.node}:{self.index}"

    @staticmethod
    def gpu(node: int, index: int) -> "Device":
        """The ``index``-th GPU of ``node``."""
        return Device("gpu", node, index)

    @staticmethod
    def cpu(node: int, socket: int) -> "Device":
        """The ``socket``-th CPU socket of ``node``."""
        return Device("cpu", node, socket)

    @staticmethod
    def nic(node: int, rail: int) -> "Device":
        """The ``rail``-th InfiniBand NIC of ``node``."""
        return Device("nic", node, rail)

    @staticmethod
    def switch(index: int) -> "Device":
        """Global switch ``index`` (node = -1 by convention)."""
        return Device("switch", -1, index)

    @staticmethod
    def parse(text: str) -> "Device":
        """Parse the ``str(device)`` form ``"kind:node:index"`` back.

        This is the device syntax fault-schedule files use to name link
        endpoints (e.g. ``"nic:0:0"``, ``"switch:-1:1"``).
        """
        parts = text.strip().split(":")
        if len(parts) != 3:
            raise ValueError(f"bad device string {text!r}; want 'kind:node:index'")
        kind, node, index = parts
        if kind not in ("gpu", "cpu", "nic", "switch"):
            raise ValueError(f"unknown device kind {kind!r} in {text!r}")
        return Device(kind, int(node), int(index))


class Topology:
    """A directed graph of :class:`Device` nodes joined by :class:`Link` edges.

    Full-duplex physical links are added with :meth:`add_link` (default
    ``duplex=True``), which creates an independent serialized :class:`Link`
    in each direction.
    """

    def __init__(self, env: Environment, name: str = "cluster") -> None:
        self.env = env
        self.name = name
        self.graph = nx.DiGraph()
        self._route_cache: dict[tuple[Device, Device], list[Link]] = {}
        self._route_info_cache: dict[tuple[Device, Device], RouteInfo] = {}
        #: Every construction call so far, as plain tuples (the memo key).
        self._history: list[tuple] = []
        #: This shape's entry in the shared path memo, once looked up.
        self._paths: dict[tuple[Device, Device], list[Device]] | None = None

    # -- construction ----------------------------------------------------
    def add_device(self, device: Device) -> Device:
        """Register a device (idempotent)."""
        self.graph.add_node(device)
        self._record((device.kind, device.node, device.index))
        return device

    def add_link(self, a: Device, b: Device, spec: LinkSpec, duplex: bool = True) -> None:
        """Join ``a`` and ``b`` with a link of type ``spec``.

        With ``duplex`` (the default) an independent reverse link is
        created too.  Adding a second link between the same pair replaces
        the first — the model is one (possibly aggregated) link per
        device pair per direction.
        """
        self.add_device(a)
        self.add_device(b)
        self.graph.add_edge(a, b, link=Link(self.env, spec, f"{a}->{b}"))
        if duplex:
            self.graph.add_edge(b, a, link=Link(self.env, spec, f"{b}->{a}"))
        self._record((a.kind, a.node, a.index, b.kind, b.node, b.index,
                      spec.latency_s, duplex))
        self._invalidate_routes()

    def _record(self, call: tuple) -> None:
        """Append a construction call to the history (the route memo key)."""
        self._history.append(call)
        self._paths = None

    # -- queries ----------------------------------------------------------
    def devices(self, kind: str | None = None) -> list[Device]:
        """All devices, optionally filtered by ``kind``, in sorted order."""
        devs = (d for d in self.graph.nodes if kind is None or d.kind == kind)
        return sorted(devs)

    def gpus(self) -> list[Device]:
        """All GPU devices, ordered by (node, index) — the MPI rank order."""
        return self.devices("gpu")

    def link(self, a: Device, b: Device) -> Link:
        """The direct link from ``a`` to ``b`` (KeyError if absent)."""
        return self.graph.edges[a, b]["link"]

    def links(self) -> list[Link]:
        """Every directed link in the topology."""
        return [data["link"] for _, _, data in self.graph.edges(data=True)]

    def same_node(self, a: Device, b: Device) -> bool:
        """True when both devices live in the same physical node."""
        return a.node == b.node and a.node >= 0

    def route(self, src: Device, dst: Device) -> list[Link]:
        """Minimum-latency route from ``src`` to ``dst`` as a link list.

        Routes are cached; ``src == dst`` yields an empty route (a local
        operation that costs no fabric time).
        """
        if src == dst:
            return []
        cached = self._route_cache.get((src, dst))
        if cached is None:
            paths = self._paths
            if paths is None:
                paths = self._paths = _PATHS.setdefault(tuple(self._history), {})
            path = paths.get((src, dst))
            if path is None:
                path = paths[(src, dst)] = nx.shortest_path(
                    self.graph, src, dst, weight=_latency)
            cached = [self.graph.edges[u, v]["link"] for u, v in zip(path, path[1:])]
            self._route_cache[(src, dst)] = cached
        return cached

    def degrade_link(self, a: Device, b: Device, factor: float,
                     duplex: bool = True) -> None:
        """Multiply the a→b link's bandwidth factor by ``factor``.

        Models a failing/contended component (flapping rail, mis-seated
        cable, PCIe downtraining) for fault-injection studies.  Repeated
        degradations *compose*: the effective bandwidth is always
        ``base × Π factors``, rebuilt from the pristine spec, so the name
        carries exactly one ``-degraded`` suffix.  With ``duplex`` the
        reverse direction degrades too.  Route caches are invalidated;
        accumulated traffic counters are preserved.
        """
        if not 0 < factor <= 1:
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        for src, dst in self._directions(a, b, duplex):
            link = self.link(src, dst)
            link.set_factor(link.degrade_factor * factor)
        self._invalidate_routes()

    def set_link_factor(self, a: Device, b: Device, factor: float,
                        duplex: bool = True) -> None:
        """Set the a→b bandwidth factor *absolutely* (1.0 = pristine).

        Unlike :meth:`degrade_link` this does not compose — it is the
        primitive fault revert uses to restore a link to exactly the
        factor it had before a fault was applied.
        """
        for src, dst in self._directions(a, b, duplex):
            self.link(src, dst).set_factor(factor)
        self._invalidate_routes()

    def restore_link(self, a: Device, b: Device, duplex: bool = True) -> None:
        """Undo all degradation and down state on the a→b link.

        The inverse of :meth:`degrade_link` / :meth:`set_link_up` needed
        by flapping-link fault injection: the spec returns to the pristine
        datasheet values (original name, latency, bandwidth) and the link
        is brought back up.
        """
        for src, dst in self._directions(a, b, duplex):
            link = self.link(src, dst)
            link.set_factor(1.0)
            link.up = True
        self._invalidate_routes()

    def set_link_up(self, a: Device, b: Device, up: bool,
                    duplex: bool = True) -> None:
        """Mark the a→b link up or down (down = transfers fail and retry)."""
        for src, dst in self._directions(a, b, duplex):
            self.link(src, dst).up = up
        self._invalidate_routes()

    def link_factor(self, a: Device, b: Device) -> float:
        """Current bandwidth factor of the a→b link (1.0 = healthy)."""
        return self.link(a, b).degrade_factor

    def _directions(self, a: Device, b: Device,
                    duplex: bool) -> list[tuple[Device, Device]]:
        return [(a, b)] + ([(b, a)] if duplex else [])

    def _invalidate_routes(self) -> None:
        self._route_cache.clear()
        self._route_info_cache.clear()

    def route_info(self, src: Device, dst: Device) -> RouteInfo | None:
        """Cached :class:`RouteInfo` for the route, ``None`` if src == dst."""
        if src == dst:
            return None
        info = self._route_info_cache.get((src, dst))
        if info is None:
            links = tuple(self.route(src, dst))
            info = RouteInfo(
                links=links,
                acquire_order=tuple(sorted(links, key=lambda l: l.order_key)),
                latency_s=sum(l.latency_s for l in links),
                bottleneck_Bps=min(l.bandwidth_Bps for l in links),
            )
            self._route_info_cache[(src, dst)] = info
        return info

    def route_latency(self, src: Device, dst: Device) -> float:
        """Sum of link latencies along the route (unloaded)."""
        return sum(link.latency_s for link in self.route(src, dst))

    def route_bandwidth(self, src: Device, dst: Device) -> float:
        """Bottleneck (minimum) bandwidth along the route in bytes/second."""
        route = self.route(src, dst)
        if not route:
            return float("inf")
        return min(link.bandwidth_Bps for link in route)

    def __repr__(self) -> str:
        return (
            f"<Topology {self.name}: {len(self.graph.nodes)} devices, "
            f"{self.graph.number_of_edges()} links>"
        )
