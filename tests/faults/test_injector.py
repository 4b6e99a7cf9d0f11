"""FaultInjector unit tests: apply/revert against a live topology."""

import pytest

from repro.cluster import Device, Fabric, build_summit
from repro.faults import (
    DegradedRail,
    FaultInjector,
    FaultSchedule,
    LinkFlap,
    RankCrash,
    RankRestart,
    StragglerGPU,
)
from repro.horovod.timeline import Timeline
from repro.sim import Environment

NIC, SW = Device.nic(0, 0), Device.switch(1)
RAIL = (str(NIC), str(SW))


def make(schedule, timeline=None):
    env = Environment()
    topo = build_summit(env, nodes=1)
    injector = FaultInjector(env, schedule, topology=topo, timeline=timeline)
    return env, topo, injector


class TestStraggler:
    def test_multiplier_window(self):
        sched = FaultSchedule.of(
            StragglerGPU(rank=2, start_s=1.0, duration_s=2.0, slowdown=3.0)
        )
        env, topo, inj = make(sched)
        inj.start()
        assert inj.compute_multiplier(2) == 1.0
        env.run(until=1.5)
        assert inj.compute_multiplier(2) == 3.0
        assert inj.compute_multiplier(0) == 1.0  # other ranks untouched
        env.run(until=3.5)
        assert inj.compute_multiplier(2) == 1.0
        assert inj.stats.applied == 1 and inj.stats.reverted == 1

    def test_overlapping_stragglers_multiply(self):
        sched = FaultSchedule.of(
            StragglerGPU(rank=0, start_s=0.0, duration_s=2.0, slowdown=2.0),
            StragglerGPU(rank=0, start_s=1.0, duration_s=2.0, slowdown=3.0),
        )
        env, topo, inj = make(sched)
        inj.start()
        env.run(until=1.5)
        assert inj.compute_multiplier(0) == pytest.approx(6.0)
        env.run(until=2.5)
        assert inj.compute_multiplier(0) == pytest.approx(3.0)
        env.run(until=3.5)
        assert inj.compute_multiplier(0) == 1.0


class TestDegradedRail:
    def test_apply_and_exact_revert(self):
        sched = FaultSchedule.of(
            DegradedRail(link=RAIL, start_s=1.0, duration_s=1.0, factor=0.25)
        )
        env, topo, inj = make(sched)
        inj.start()
        original = topo.link(NIC, SW).spec
        env.run(until=1.5)
        assert topo.link_factor(NIC, SW) == pytest.approx(0.25)
        env.run(until=2.5)
        assert topo.link_factor(NIC, SW) == 1.0
        assert topo.link(NIC, SW).spec == original

    def test_composes_with_preexisting_degradation(self):
        sched = FaultSchedule.of(
            DegradedRail(link=RAIL, start_s=1.0, duration_s=1.0, factor=0.5)
        )
        env, topo, inj = make(sched)
        topo.set_link_factor(NIC, SW, 0.5)
        inj.start()
        env.run(until=1.5)
        assert topo.link_factor(NIC, SW) == pytest.approx(0.25)
        env.run(until=2.5)
        # Reverts to the pre-existing 0.5, not all the way to nominal.
        assert topo.link_factor(NIC, SW) == pytest.approx(0.5)

    def test_needs_topology(self):
        env = Environment()
        sched = FaultSchedule.of(
            DegradedRail(link=RAIL, start_s=0.0, duration_s=1.0, factor=0.5)
        )
        inj = FaultInjector(env, sched, topology=None)
        inj.start()
        with pytest.raises(RuntimeError, match="topology"):
            env.run(until=2.0)


class TestClose:
    def test_close_ends_every_open_window_at_once(self):
        """The run's end reverts each open window, latest first, counts it
        and ends its FAULT span there; a fault not yet due stays off."""
        timeline = Timeline()
        sched = FaultSchedule.of(
            StragglerGPU(rank=2, start_s=0.5, duration_s=10.0, slowdown=3.0),
            LinkFlap(link=RAIL, start_s=1.0, duration_s=10.0,
                     period_s=1.0, down_s=0.6),
            DegradedRail(link=RAIL, start_s=1.2, duration_s=10.0, factor=0.5),
            StragglerGPU(rank=0, start_s=5.0, duration_s=1.0, slowdown=2.0),
        )
        env, topo, inj = make(sched, timeline=timeline)
        original = topo.link(NIC, SW).spec
        inj.start()
        env.run(until=1.5)  # the flap is down, the rail degraded under it
        assert not topo.link(NIC, SW).up
        inj.close()
        for link in (topo.link(NIC, SW), topo.link(SW, NIC)):
            assert link.up and link.spec == original
        assert inj.compute_multiplier(2) == 1.0
        assert inj.stats.applied == inj.stats.reverted == 3
        spans = timeline.spans("FAULT")
        assert [s.label.split("_")[0] for s in spans] == [
            "degraded", "flap", "straggler"]
        assert all(s.end_s == 1.5 for s in spans)

class TestLinkFlap:
    def test_hard_down_cycles(self):
        sched = FaultSchedule.of(
            LinkFlap(link=RAIL, start_s=1.0, duration_s=2.0,
                     period_s=1.0, down_s=0.4)
        )
        env, topo, inj = make(sched)
        inj.start()
        env.run(until=1.2)
        assert not topo.link(NIC, SW).up
        env.run(until=1.6)
        assert topo.link(NIC, SW).up
        env.run(until=2.2)
        assert not topo.link(NIC, SW).up
        env.run(until=3.5)
        assert topo.link(NIC, SW).up
        assert inj.stats.flap_cycles == 2

    def test_soft_flap_degrades_instead(self):
        sched = FaultSchedule.of(
            LinkFlap(link=RAIL, start_s=1.0, duration_s=1.0,
                     period_s=1.0, down_s=0.5, severity=0.1)
        )
        env, topo, inj = make(sched)
        inj.start()
        env.run(until=1.2)
        assert topo.link(NIC, SW).up  # degraded, not down
        assert topo.link_factor(NIC, SW) == pytest.approx(0.1)
        env.run(until=2.5)
        assert topo.link_factor(NIC, SW) == 1.0

    def test_records_fault_spans(self):
        timeline = Timeline()
        sched = FaultSchedule.of(
            LinkFlap(link=RAIL, start_s=1.0, duration_s=2.0,
                     period_s=1.0, down_s=0.4)
        )
        env, topo, inj = make(sched, timeline=timeline)
        inj.start()
        env.run(until=4.0)
        spans = timeline.spans("FAULT")
        assert len(spans) == 1
        assert spans[0].start_s == pytest.approx(1.0)
        assert spans[0].end_s == pytest.approx(3.0)


class _StubTrainer:
    def __init__(self):
        self.killed: list[int] = []
        self.restarted: list[int] = []

    def kill_rank(self, rank):
        self.killed.append(rank)

    def restart_rank(self, rank):
        self.restarted.append(rank)


class _StubRuntime:
    def __init__(self):
        self.crashes: list[int] = []
        self.restarts: list[int] = []

    def report_crash(self, rank):
        self.crashes.append(rank)

    def report_restart(self, rank):
        self.restarts.append(rank)


class TestRankLifecycle:
    def test_crash_and_restart_dispatch(self):
        env = Environment()
        sched = FaultSchedule.of(
            RankCrash(rank=3, start_s=1.0),
            RankRestart(rank=3, start_s=2.0),
        )
        trainer, runtime = _StubTrainer(), _StubRuntime()
        inj = FaultInjector(env, sched)
        inj.bind(runtime=runtime, trainer=trainer).start()
        env.run(until=3.0)
        assert trainer.killed == [3]
        assert runtime.crashes == [3]
        # The trainer's restart process owns runtime re-admission.
        assert trainer.restarted == [3]
        assert runtime.restarts == []
        assert inj.stats.crashes == 1 and inj.stats.restarts == 1

    def test_runtime_only_restart_readmits_directly(self):
        env = Environment()
        sched = FaultSchedule.of(RankRestart(rank=1, start_s=1.0))
        runtime = _StubRuntime()
        inj = FaultInjector(env, sched).bind(runtime=runtime)
        inj.start()
        env.run(until=2.0)
        assert runtime.restarts == [1]

    def test_unbound_crash_raises(self):
        env = Environment()
        sched = FaultSchedule.of(RankCrash(rank=0, start_s=0.5))
        FaultInjector(env, sched).start()
        with pytest.raises(RuntimeError, match="bound"):
            env.run(until=1.0)

    def test_start_is_idempotent(self):
        env = Environment()
        sched = FaultSchedule.of(RankCrash(rank=0, start_s=0.5))
        runtime = _StubRuntime()
        inj = FaultInjector(env, sched).bind(runtime=runtime)
        inj.start()
        inj.start()
        env.run(until=1.0)
        assert runtime.crashes == [0]
