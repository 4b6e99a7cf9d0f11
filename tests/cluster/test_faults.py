"""Tests for the link fault primitives: ``set_link_factor``, ``set_link_up``."""

import pytest

from repro.cluster import Device, Fabric, build_summit
from repro.sim import Environment


def make():
    env = Environment()
    topo = build_summit(env, nodes=2)
    return env, topo, Fabric(topo)


def test_degrade_slows_transfers_through_link():
    env, topo, fabric = make()
    src, dst = Device.gpu(0, 0), Device.gpu(1, 0)
    healthy = fabric.transfer_seconds(src, dst, 10 << 20)
    topo.set_link_factor(Device.nic(0, 0), Device.switch(1), 0.1)
    degraded = fabric.transfer_seconds(src, dst, 10 << 20)
    assert degraded > 5 * healthy


def test_degrade_leaves_other_routes_untouched():
    env, topo, fabric = make()
    other = fabric.transfer_seconds(Device.gpu(0, 3), Device.gpu(1, 3), 1 << 20)
    topo.set_link_factor(Device.nic(0, 0), Device.switch(1), 0.1)
    # Socket-1 GPUs use rail 1; unaffected.
    assert fabric.transfer_seconds(
        Device.gpu(0, 3), Device.gpu(1, 3), 1 << 20
    ) == pytest.approx(other)


def test_degrade_duplex_affects_both_directions():
    env, topo, fabric = make()
    topo.set_link_factor(Device.nic(0, 0), Device.switch(1), 0.5)
    fwd = topo.link(Device.nic(0, 0), Device.switch(1))
    rev = topo.link(Device.switch(1), Device.nic(0, 0))
    assert "degraded" in fwd.spec.name and "degraded" in rev.spec.name


def test_degrade_simplex_option():
    env, topo, fabric = make()
    topo.set_link_factor(Device.nic(0, 0), Device.switch(1), 0.5, duplex=False)
    rev = topo.link(Device.switch(1), Device.nic(0, 0))
    assert "degraded" not in rev.spec.name


def test_degrade_validation():
    env, topo, fabric = make()
    with pytest.raises(ValueError):
        topo.set_link_factor(Device.nic(0, 0), Device.switch(1), 0.0)
    with pytest.raises(ValueError):
        topo.set_link_factor(Device.nic(0, 0), Device.switch(1), 1.5)


def test_degrade_invalidates_route_cache():
    env, topo, fabric = make()
    src, dst = Device.gpu(0, 0), Device.gpu(1, 0)
    before = topo.route_bandwidth(src, dst)
    topo.set_link_factor(Device.nic(0, 0), Device.switch(1), 0.5)
    after = topo.route_bandwidth(src, dst)
    assert after == pytest.approx(before * 0.5)


NIC, SW = Device.nic(0, 0), Device.switch(1)


def test_repeated_degrade_composes_from_base_spec():
    """Each factor rebuilds the spec from the pristine one: one suffix."""
    env, topo, fabric = make()
    nominal = topo.link(NIC, SW).spec.bandwidth_Bps
    topo.set_link_factor(NIC, SW, 0.5)
    topo.set_link_factor(NIC, SW, 0.25)
    link = topo.link(NIC, SW)
    assert link.spec.bandwidth_Bps == pytest.approx(nominal * 0.25)
    assert link.spec.name.count("degraded") == 1


def test_restore_link_is_exact_inverse():
    """Factor 1.0 brings back the pristine spec, name included."""
    env, topo, fabric = make()
    src, dst = Device.gpu(0, 0), Device.gpu(1, 0)
    healthy = fabric.transfer_seconds(src, dst, 10 << 20)
    original_spec = topo.link(NIC, SW).spec
    topo.set_link_factor(NIC, SW, 0.1)
    topo.set_link_factor(NIC, SW, 0.3)
    topo.set_link_factor(NIC, SW, 1.0)
    link = topo.link(NIC, SW)
    assert link.spec == original_spec
    assert topo.link_factor(NIC, SW) == 1.0
    assert fabric.transfer_seconds(src, dst, 10 << 20) == pytest.approx(healthy)


def test_restore_refreshes_route_cache():
    env, topo, fabric = make()
    src, dst = Device.gpu(0, 0), Device.gpu(1, 0)
    before = topo.route_bandwidth(src, dst)
    topo.set_link_factor(NIC, SW, 0.5)
    assert topo.route_bandwidth(src, dst) == pytest.approx(before * 0.5)
    topo.set_link_factor(NIC, SW, 1.0)
    assert topo.route_bandwidth(src, dst) == pytest.approx(before)


def test_set_link_factor_is_absolute_not_compounding():
    env, topo, fabric = make()
    nominal = topo.link(NIC, SW).spec.bandwidth_Bps
    topo.set_link_factor(NIC, SW, 0.5)
    topo.set_link_factor(NIC, SW, 0.5)
    assert topo.link(NIC, SW).spec.bandwidth_Bps == pytest.approx(nominal * 0.5)


def test_restore_also_brings_link_back_up():
    """A flap's up edge: both directions back up and pristine."""
    env, topo, fabric = make()
    original_spec = topo.link(NIC, SW).spec
    topo.set_link_factor(NIC, SW, 0.5)
    topo.set_link_up(NIC, SW, False)
    assert not topo.link(NIC, SW).up
    assert not topo.link(SW, NIC).up
    topo.set_link_up(NIC, SW, True)
    topo.set_link_factor(NIC, SW, 1.0)
    for link in (topo.link(NIC, SW), topo.link(SW, NIC)):
        assert link.up
        assert link.spec == original_spec


def test_set_link_up_simplex():
    env, topo, fabric = make()
    topo.set_link_up(NIC, SW, False, duplex=False)
    assert not topo.link(NIC, SW).up
    assert topo.link(SW, NIC).up
