"""Property tests for link arithmetic: sharing conservation, degrade/restore.

Hypothesis-driven invariants over the α–β link model:

* **Serialization conserves link-seconds** — N contended transfers over
  one directed route finish at exactly the sum of their unloaded
  durations, and every route link's ``busy_seconds``/``bytes_carried``
  account for each transfer once (no time or bytes created or lost by
  queueing).
* **Degrade/restore round-trips** — any sequence of ``set_factor`` calls
  composes from ``base_spec`` (never accretes), and ``set_factor(1.0)``
  restores the pristine spec object exactly.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Device, Fabric, build_summit
from repro.cluster.links import Link, LinkSpec
from repro.sim import Environment
from repro.sim.units import MiB, microseconds

SIZES = st.lists(st.integers(min_value=0, max_value=64 * MiB),
                 min_size=1, max_size=6)
FACTORS = st.lists(st.floats(min_value=0.01, max_value=1.0,
                             allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=5)

prop = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def make_fabric(nodes=1):
    env = Environment()
    return env, Fabric(build_summit(env, nodes=nodes))


@prop
@given(sizes=SIZES)
def test_serialized_transfers_conserve_link_seconds(sizes):
    """Makespan of N contended transfers == Σ unloaded durations."""
    env, fabric = make_fabric()
    src, dst = Device.gpu(0, 0), Device.gpu(0, 1)
    durations = [fabric.transfer_seconds(src, dst, n) for n in sizes]
    events = [fabric.transfer(src, dst, n) for n in sizes]
    env.run()
    assert env.now == pytest.approx(sum(durations))
    # FIFO queueing: transfer k completes at the k-th partial sum.
    done = 0.0
    for event, duration in zip(events, durations):
        done += duration
        assert event.value == pytest.approx(done)
    link = fabric.topology.link(src, dst)
    assert link.busy_seconds == pytest.approx(sum(durations))
    assert link.bytes_carried == sum(sizes)
    assert fabric.stats.transfers == len(sizes)
    assert fabric.stats.bytes_moved == sum(sizes)


@prop
@given(sizes=SIZES)
def test_route_holds_every_link_for_the_same_duration(sizes):
    """Busy-seconds conservation across a multi-link route.

    A wormhole transfer occupies all route links for its whole duration,
    so Σ_links busy_seconds == Σ_transfers duration × route_length.
    """
    env, fabric = make_fabric(nodes=2)
    src, dst = Device.gpu(0, 0), Device.gpu(1, 0)
    route = fabric.topology.route(src, dst)
    assert len(route) > 1
    durations = [fabric.transfer_seconds(src, dst, n) for n in sizes]
    for n in sizes:
        fabric.transfer(src, dst, n)
    env.run()
    for link in route:
        assert link.busy_seconds == pytest.approx(sum(durations))
        assert link.bytes_carried == sum(sizes)
    total_busy = sum(l.busy_seconds for l in fabric.topology.links())
    assert total_busy == pytest.approx(sum(durations) * len(route))


@prop
@given(n=st.integers(min_value=0, max_value=256 * MiB),
       derate=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
       extra=st.floats(min_value=0.0, max_value=1e-4, allow_nan=False))
def test_transfer_seconds_is_the_alpha_beta_closed_form(n, derate, extra):
    env, fabric = make_fabric(nodes=2)
    src, dst = Device.gpu(0, 0), Device.gpu(1, 0)
    route = fabric.topology.route(src, dst)
    expected = (sum(l.latency_s for l in route) + extra
                + n / (min(l.bandwidth_Bps for l in route) * derate))
    got = fabric.transfer_seconds(src, dst, n, extra_latency=extra,
                                  bandwidth_derate=derate)
    assert got == pytest.approx(expected)
    # Monotone in size: one more byte never arrives earlier.
    assert fabric.transfer_seconds(src, dst, n + 1, extra_latency=extra,
                                   bandwidth_derate=derate) >= got


@prop
@given(factors=FACTORS)
def test_degrade_compose_from_base_then_restore_roundtrip(factors):
    env = Environment()
    spec = LinkSpec("nvlink2", microseconds(1.9), 47e9)
    link = Link(env, spec, "a->b")
    for factor in factors:
        link.set_factor(factor)
        # Each degradation recomputes from the pristine datasheet spec —
        # repeated applications never compound.
        assert link.bandwidth_Bps == spec.bandwidth_Bps * factor
        assert link.latency_s == spec.latency_s
        assert link.degrade_factor == factor
        if factor != 1.0:
            assert link.spec.name == "nvlink2-degraded"
    link.set_factor(1.0)
    assert link.spec is spec
    assert link.degrade_factor == 1.0
    assert link.bandwidth_Bps == spec.bandwidth_Bps


@prop
@given(factor=st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
       n=st.integers(min_value=1, max_value=64 * MiB))
def test_degraded_transfer_time_scales_exactly(factor, n):
    """Degrading the bottleneck scales only the bandwidth term."""
    env, fabric = make_fabric()
    src, dst = Device.gpu(0, 0), Device.gpu(0, 1)
    (link,) = fabric.topology.route(src, dst)
    healthy = fabric.transfer_seconds(src, dst, n)
    link.set_factor(factor)
    degraded = fabric.transfer_seconds(src, dst, n)
    assert (degraded - link.latency_s) == pytest.approx(
        (healthy - link.latency_s) / factor
    )
    link.set_factor(1.0)
    assert fabric.transfer_seconds(src, dst, n) == healthy


@prop
@given(factor=st.floats(min_value=0, max_value=2.0, allow_nan=False))
def test_set_factor_rejects_out_of_range(factor):
    env = Environment()
    link = Link(env, LinkSpec("x", 0.0, 1.0), "a->b")
    if 0 < factor <= 1:
        link.set_factor(factor)
    else:
        with pytest.raises(ValueError):
            link.set_factor(factor)
