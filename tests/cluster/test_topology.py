"""Tests for devices, links, and the Summit topology."""

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Device, Fabric, LinkDownError, LinkSpec, Topology, build_summit,
)
from repro.cluster import topology as topology_mod
from repro.cluster.summit import SUMMIT_NODE, SummitNodeSpec
from repro.sim import Environment
from repro.sim.units import gbyte_per_s, microseconds


def test_linkspec_validation():
    with pytest.raises(ValueError):
        LinkSpec("bad", -1e-6, 1e9)
    with pytest.raises(ValueError):
        LinkSpec("bad", 1e-6, 0)


def test_linkspec_transfer_seconds():
    spec = LinkSpec("l", 1e-6, 1e9)
    assert spec.transfer_seconds(0) == 1e-6
    assert spec.transfer_seconds(10**9) == pytest.approx(1.000001)


def test_device_ordering_is_rank_order():
    devs = [Device.gpu(1, 0), Device.gpu(0, 5), Device.gpu(0, 0)]
    assert sorted(devs) == [Device.gpu(0, 0), Device.gpu(0, 5), Device.gpu(1, 0)]


def test_topology_duplex_links_are_independent():
    env = Environment()
    topo = Topology(env)
    a, b = Device.gpu(0, 0), Device.gpu(0, 1)
    topo.add_link(a, b, LinkSpec("l", 1e-6, 1e9))
    assert topo.link(a, b) is not topo.link(b, a)


def test_route_self_is_empty():
    env = Environment()
    topo = build_summit(env, nodes=1)
    g = Device.gpu(0, 0)
    assert topo.route(g, g) == []
    assert topo.route_bandwidth(g, g) == float("inf")


def test_summit_node_shape():
    assert SUMMIT_NODE.gpus_per_node == 6
    assert SummitNodeSpec(sockets=2, gpus_per_socket=2).gpus_per_node == 4


def test_summit_gpu_count_and_rank_order():
    env = Environment()
    topo = build_summit(env, nodes=3)
    gpus = topo.gpus()
    assert len(gpus) == 18
    assert gpus[0] == Device.gpu(0, 0)
    assert gpus[7] == Device.gpu(1, 1)


def test_summit_same_socket_gpus_direct_nvlink():
    env = Environment()
    topo = build_summit(env, nodes=1)
    route = topo.route(Device.gpu(0, 0), Device.gpu(0, 2))
    assert len(route) == 1
    assert route[0].spec.name == "nvlink2-gg"


def test_summit_cross_socket_route_uses_xbus():
    env = Environment()
    topo = build_summit(env, nodes=1)
    route = topo.route(Device.gpu(0, 0), Device.gpu(0, 3))
    names = [l.spec.name for l in route]
    assert "x-bus" in names
    # gpu -> cpu0 -> cpu1 -> gpu
    assert names[0] == "nvlink2-gc" and names[-1] == "nvlink2-gc"


def test_summit_inter_node_route_crosses_ib():
    env = Environment()
    topo = build_summit(env, nodes=2)
    route = topo.route(Device.gpu(0, 0), Device.gpu(1, 0))
    names = [l.spec.name for l in route]
    assert names.count("ib-edr") == 2  # injection + reception
    assert "pcie4-x8" in names


def test_summit_bottleneck_bandwidth_inter_node():
    env = Environment()
    topo = build_summit(env, nodes=2)
    bw = topo.route_bandwidth(Device.gpu(0, 0), Device.gpu(1, 0))
    assert bw == pytest.approx(gbyte_per_s(12.3))


def test_summit_multi_leaf_routes_exist():
    env = Environment()
    topo = build_summit(env, nodes=40, nodes_per_leaf=18)
    # Nodes 0 and 39 are on different leaves -> route crosses the spine.
    route = topo.route(Device.gpu(0, 0), Device.gpu(39, 5))
    names = [l.spec.name for l in route]
    assert names.count("ib-edr-uplink") == 2


def test_summit_invalid_args():
    env = Environment()
    with pytest.raises(ValueError):
        build_summit(env, nodes=0)
    with pytest.raises(ValueError):
        build_summit(env, nodes=2, nodes_per_leaf=0)


def test_route_latency_is_sum():
    env = Environment()
    topo = build_summit(env, nodes=1)
    route = topo.route(Device.gpu(0, 0), Device.gpu(0, 1))
    assert topo.route_latency(Device.gpu(0, 0), Device.gpu(0, 1)) == pytest.approx(
        sum(l.latency_s for l in route)
    )
    assert topo.route_latency(Device.gpu(0, 0), Device.gpu(0, 1)) == pytest.approx(
        microseconds(1.9)
    )


# -- route memo across topology instances ------------------------------------


def _endpoints(topo, route):
    """A link list as the device path it walks."""
    ends = {id(link): (u, v)
            for u, out in topo._succ.items() for v, link in out.items()}
    path = [ends[id(route[0])][0]]
    for link in route:
        u, v = ends[id(link)]
        assert u == path[-1]
        path.append(v)
    return path


def _gpu_pairs(topo):
    gpus = topo.gpus()
    return [(a, b) for a in gpus for b in gpus if a != b]


@pytest.fixture
def count_searches(monkeypatch):
    """Count the shortest-path searches topologies run."""
    calls = []
    search = topology_mod._shortest_path

    def counting(succ, pred, src, dst):
        calls.append((src, dst))
        return search(succ, pred, src, dst)

    monkeypatch.setattr(topology_mod, "_shortest_path", counting)
    return calls


@pytest.fixture(scope="module")
def summit_22_routed():
    """A 132-GPU Summit with every GPU pair routed (fills the memo)."""
    topo = build_summit(Environment(), nodes=22)
    for a, b in _gpu_pairs(topo):
        topo.route(a, b)
    return topo


def _networkx_graph(topo):
    """The reference: a networkx DiGraph replaying the topology's
    construction calls in order, so that its adjacency, and with it
    networkx's tie order, has the topology's insertion order."""
    graph = nx.DiGraph()
    for call in topo._history:
        a = Device(*call[:3])
        graph.add_node(a)
        if len(call) > 3:
            b = Device(*call[3:6])
            latency_s, duplex = call[6:]
            graph.add_edge(a, b, latency=latency_s)
            if duplex:
                graph.add_edge(b, a, latency=latency_s)
    return graph


def test_memoized_routes_match_a_fresh_search(summit_22_routed):
    topo = build_summit(Environment(), nodes=22)
    graph = _networkx_graph(topo)
    for a, b in _gpu_pairs(topo):
        fresh = nx.shortest_path(graph, a, b, weight="latency")
        # Same path, over this topology's own links.
        assert topo.route(a, b) == [topo.link(u, v)
                                    for u, v in zip(fresh, fresh[1:])]


def test_same_shape_routes_run_no_search(summit_22_routed, count_searches):
    topo = build_summit(Environment(), nodes=22)
    for a, b in _gpu_pairs(topo):
        topo.route(a, b)
        topo.route_info(a, b)
    assert count_searches == []


def _diamond(env, via_c_latency=2e-6, extra=False):
    """a -> {b, c} -> d: the route goes via b unless a->c gets faster."""
    topo = Topology(env)
    a, b, c, d = (Device.gpu(0, i) for i in range(4))
    topo.add_link(a, b, LinkSpec("l", 1e-6, 1e9))
    topo.add_link(b, d, LinkSpec("l", 1e-6, 1e9))
    topo.add_link(a, c, LinkSpec("l", via_c_latency, 1e9))
    topo.add_link(c, d, LinkSpec("l", 1e-6, 1e9))
    if extra:
        topo.add_link(a, d, LinkSpec("direct", 0.5e-6, 1e9))
    return topo, a, b, c, d


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty route memo, so search counts do not depend on test order."""
    monkeypatch.setattr(topology_mod, "_PATHS", {})


def test_memo_keys_on_latency_and_links(fresh_memo, count_searches):
    env = Environment()
    base, a, b, c, d = _diamond(env)
    assert _endpoints(base, base.route(a, d)) == [a, b, d]
    faster_c, *_ = _diamond(env, via_c_latency=0.5e-6)
    assert _endpoints(faster_c, faster_c.route(a, d)) == [a, c, d]
    direct, *_ = _diamond(env, extra=True)
    assert _endpoints(direct, direct.route(a, d)) == [a, d]
    assert len(count_searches) == 3
    assert len({id(t._paths) for t in (base, faster_c, direct)}) == 3
    # The same shape again shares the first entry.
    again, *_ = _diamond(env)
    assert _endpoints(again, again.route(a, d)) == [a, b, d]
    assert again._paths is base._paths
    assert len(count_searches) == 3


def test_add_link_after_routing_invalidates(fresh_memo, count_searches):
    topo, a, b, c, d = _diamond(Environment())
    assert _endpoints(topo, topo.route(a, d)) == [a, b, d]
    topo.add_link(a, d, LinkSpec("direct", 0.5e-6, 1e9))
    assert _endpoints(topo, topo.route(a, d)) == [a, d]
    assert topo.route_info(a, d).links == (topo.link(a, d),)
    assert len(count_searches) == 2


def test_faults_on_a_memoized_topology(fresh_memo, count_searches):
    env = Environment()
    src, dst = Device.gpu(0, 0), Device.gpu(1, 0)
    nic, switch = Device.nic(0, 0), Device.switch(1)
    build_summit(env, nodes=2).route(src, dst)
    topo = build_summit(env, nodes=2)
    route = topo.route(src, dst)
    healthy = topo.route_info(src, dst).bottleneck_Bps
    assert len(count_searches) == 1  # the second topology hit the memo

    topo.set_link_factor(nic, switch, 0.25)
    assert topo.route(src, dst) == route
    assert topo.route_info(src, dst).bottleneck_Bps == pytest.approx(
        topo.link(nic, switch).bandwidth_Bps)
    assert topo.route_info(src, dst).bottleneck_Bps < healthy

    topo.set_link_up(nic, switch, False)
    assert topo.route(src, dst) == route
    Fabric(topo).transfer(src, dst, 1 << 20)
    with pytest.raises(LinkDownError):
        env.run()

    topo.set_link_up(nic, switch, True)
    topo.set_link_factor(nic, switch, 1.0)
    assert topo.route(src, dst) == route
    assert topo.route_info(src, dst).bottleneck_Bps == healthy
    assert len(count_searches) == 1


# -- the route search against networkx ----------------------------------------


#: Microsecond-scale latencies that are small multiples of 2**-20 s, so
#: path sums are exact and equal-latency paths really tie (1e-6 + 2e-6
#: != 3e-6 in floating point, which would hide the tie order).
_TIED_LATENCIES = [2**-20, 2**-19, 3 * 2**-20]


@st.composite
def _link_calls(draw):
    """``add_link`` calls over a few devices: latencies from two or
    three values (ties), random duplex, repeated pairs (replacements)."""
    devices = draw(st.integers(min_value=2, max_value=10))
    latencies = draw(st.lists(st.sampled_from(_TIED_LATENCIES),
                              min_size=2, max_size=3, unique=True))
    pair = st.tuples(st.integers(0, devices - 1),
                     st.integers(0, devices - 1)).filter(lambda p: p[0] != p[1])
    calls = draw(st.lists(st.tuples(pair, st.sampled_from(latencies),
                                    st.booleans()), max_size=30))
    return devices, calls


_ONE_HOP = _TIED_LATENCIES[0]


@settings(max_examples=200, deadline=None)
@given(_link_calls())
# Two equal routes 0 -> {2, 1} -> 3 -> 4 -> 5, the first hop added
# 2 before 1: the forward heap's push order, not device order or the
# reverse of it, picks 2.
@example((6, [((0, 2), _ONE_HOP, False), ((0, 1), _ONE_HOP, False),
              ((1, 3), _ONE_HOP, False), ((2, 3), _ONE_HOP, False),
              ((3, 4), _ONE_HOP, False), ((4, 5), _ONE_HOP, False)]))
# Two equal routes 0 -> 1 -> 2 -> {3, 4} -> 5, 4 -> 5 added before
# 3 -> 5: the backward search reaches 4 first and picks it, where a
# forward-only search picks 3.
@example((6, [((0, 1), _ONE_HOP, False), ((1, 2), _ONE_HOP, False),
              ((2, 3), _ONE_HOP, False), ((2, 4), _ONE_HOP, False),
              ((4, 5), _ONE_HOP, False), ((3, 5), _ONE_HOP, False)]))
def test_routes_match_networkx_on_random_digraphs(case):
    devices, calls = case
    topo = Topology(Environment())
    graph = nx.DiGraph()
    nodes = [Device.gpu(0, i) for i in range(devices)]
    for device in nodes:
        topo.add_device(device)
        graph.add_node(device)
    for (i, j), latency_s, duplex in calls:
        a, b = nodes[i], nodes[j]
        topo.add_link(a, b, LinkSpec("l", latency_s, 1e9), duplex=duplex)
        graph.add_edge(a, b, latency=latency_s)
        if duplex:
            graph.add_edge(b, a, latency=latency_s)
    assert repr(topo).endswith(
        f"{graph.number_of_nodes()} devices, {graph.number_of_edges()} links>")
    for a in nodes:
        for b in nodes:
            if a == b:
                continue
            if nx.has_path(graph, a, b):
                expected = nx.shortest_path(graph, a, b, weight="latency")
                assert _endpoints(topo, topo.route(a, b)) == expected
            else:
                with pytest.raises(LookupError):
                    topo.route(a, b)
