"""Cluster topology graph: devices, links, and routing.

The topology is a directed graph, at most one edge per ordered pair,
whose nodes are :class:`Device` instances (GPUs, CPUs/sockets, NICs,
switches) and whose edges each carry one
:class:`~repro.cluster.links.Link`.  It is held as two insertion-ordered
adjacency dicts, successors and predecessors.  Routes are
minimum-latency shortest paths, computed lazily and cached — on the
fat-tree topologies we build, these coincide with the routes a real
subnet manager would program.

The search is a bidirectional Dijkstra whose choices are fixed down to
ties, so that a route never depends on anything but the construction
calls: both sides expand alternately, forward first; one shared
counter breaks heap ties (push order); a neighbour is relaxed only on
a strictly shorter distance; the meeting node is the one with the
strictly shortest total seen so far; and neighbours are read in
insertion order.  ``tests/cluster/test_topology.py`` checks it, tie for
tie, against the reference graph library's latency-weighted
``shortest_path`` on a digraph built by the same calls.

Every simulated point builds a fresh topology, so the shortest-path
searches are memoized across instances, keyed by the topology's
construction history: the endpoints, latency and direction of every
:meth:`Topology.add_device` / :meth:`Topology.add_link` call, in order.
Those are all the latency-weighted search reads, including the
insertion order that breaks ties, so two topologies with the same
history get the same routes.  Fault injection changes a link's
bandwidth or up state, never its latency, so it cannot change a route.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

from repro.cluster.links import Link, LinkSpec
from repro.sim import Environment

__all__ = ["Device", "RouteInfo", "Topology"]

#: Construction history -> {(src, dst): device path}, shared by every
#: topology built the same way.  Threads simulating concurrently (the
#: service scheduler) may both search a missing path; they store the
#: same value, so no lock is needed.
_PATHS: dict[tuple, dict[tuple["Device", "Device"], list["Device"]]] = {}


def _shortest_path(succ: dict, pred: dict, source: "Device",
                   target: "Device") -> list["Device"]:
    """The minimum-latency device path from ``source`` to ``target``.

    Bidirectional Dijkstra over the ``succ`` / ``pred`` adjacency, with
    the tie rules of the module docstring.  Raises
    :class:`LookupError` when no path exists.  Latencies are
    non-negative (:class:`LinkSpec` checks), so a finished node is
    never improved on.
    """
    adjacency = (succ, pred)
    dists = ({}, {})  # finished: device -> distance
    seen = ({source: 0}, {target: 0})  # best distance found so far
    preds = ({source: None}, {target: None})
    tie = count()
    fringe = ([(0, next(tie), source)], [(0, next(tie), target)])
    best = meet = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        done = dists[direction]
        if v in done:
            continue
        done[v] = dist
        if v in dists[1 - direction]:
            path, node = [], meet
            while node is not None:
                path.append(node)
                node = preds[0][node]
            path.reverse()
            node = preds[1][meet]
            while node is not None:
                path.append(node)
                node = preds[1][node]
            return path
        near, far = seen[direction], seen[1 - direction]
        for w, link in adjacency[direction][v].items():
            length = dist + link.latency_s
            if w not in done and (w not in near or length < near[w]):
                near[w] = length
                heappush(fringe[direction], (length, next(tie), w))
                preds[direction][w] = v
                if w in far:
                    total = length + far[w]
                    if best is None or best > total:
                        best, meet = total, w
    raise LookupError(f"no route from {source} to {target}")


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
        #: a -> {b: link a->b}, devices and successors in insertion
        #: order (the order the route search and :meth:`links` read).
        self._succ: dict[Device, dict[Device, Link]] = {}
        #: b -> {a: link a->b}: the same links, keyed by their far end.
        self._pred: dict[Device, dict[Device, Link]] = {}
        self._route_cache: dict[tuple[Device, Device], list[Link]] = {}
        self._route_info_cache: dict[tuple[Device, Device], RouteInfo] = {}
        #: Every construction call so far, as plain tuples (the memo key).
        self._history: list[tuple] = []
        #: This shape's entry in the shared path memo, once looked up.
        self._paths: dict[tuple[Device, Device], list[Device]] | None = None

    # -- construction ----------------------------------------------------
    def add_device(self, device: Device) -> Device:
        """Register a device (idempotent)."""
        if device not in self._succ:
            self._succ[device] = {}
            self._pred[device] = {}
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
        # Re-adding a pair replaces its link in place: both dicts keep
        # the first insertion's position, and with it the tie order.
        self._succ[a][b] = self._pred[b][a] = Link(self.env, spec, f"{a}->{b}")
        if duplex:
            self._succ[b][a] = self._pred[a][b] = Link(
                self.env, spec, f"{b}->{a}")
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
        devs = (d for d in self._succ if kind is None or d.kind == kind)
        return sorted(devs)

    def gpus(self) -> list[Device]:
        """All GPU devices, ordered by (node, index) — the MPI rank order."""
        return self.devices("gpu")

    def link(self, a: Device, b: Device) -> Link:
        """The direct link from ``a`` to ``b`` (KeyError if absent)."""
        return self._succ[a][b]

    def links(self) -> list[Link]:
        """Every directed link, by source device, then insertion order."""
        return [link for out in self._succ.values() for link in out.values()]

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
                path = paths[(src, dst)] = _shortest_path(
                    self._succ, self._pred, src, dst)
            cached = [self._succ[u][v] for u, v in zip(path, path[1:])]
            self._route_cache[(src, dst)] = cached
        return cached

    def set_link_factor(self, a: Device, b: Device, factor: float,
                        duplex: bool = True) -> None:
        """Set the a→b bandwidth factor *absolutely* (1.0 = pristine).

        Models a failing or contended component (flapping rail,
        mis-seated cable, PCIe downtraining) for fault injection.  The
        factor does not compose: the spec is rebuilt from the pristine
        one, so its name carries a single ``-degraded`` suffix, and fault
        revert restores a link to exactly the factor it had before a
        fault was applied.  With ``duplex`` the reverse direction
        changes too.  Route caches are invalidated; accumulated traffic
        counters are preserved.
        """
        for src, dst in self._directions(a, b, duplex):
            self.link(src, dst).set_factor(factor)
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
            f"<Topology {self.name}: {len(self._succ)} devices, "
            f"{sum(map(len, self._succ.values()))} links>"
        )
