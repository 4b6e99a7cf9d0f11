"""End-to-end resilience: the acceptance scenarios for ``repro.faults``.

Covers the runtime failure detector (suspect → retry → confirm →
elastic shrink), transfer retry over flapping links, exact revert of
fault windows, and the combined straggler + flap + mid-run-crash
schedule running to completion on the shrunken world.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.knobs import paper_tuned_config
from repro.core.sweep import measure_training
from repro.faults import (
    DegradedRail,
    FaultSchedule,
    LinkFlap,
    RankCrash,
    RankRestart,
    StragglerGPU,
)
from repro.horovod import HorovodConfig, HorovodRuntime

from tests.mpi.conftest import make_comm

pytestmark = pytest.mark.slow

WORLD = 6
#: Flap scenarios need ranks on both sides of the EDR rail (two nodes).
WORLD2 = 12
ITERS = 6


def detector_config(base, deadline_s=0.1, retries=1):
    return dataclasses.replace(base, horovod=base.horovod.with_(
        negotiation_deadline_s=deadline_s, suspect_retries=retries,
    ))


@pytest.fixture(scope="module")
def baseline():
    return measure_training(WORLD, paper_tuned_config(), iterations=ITERS,
                            jitter_std=0.0)


@pytest.fixture(scope="module")
def baseline2():
    return measure_training(WORLD2, paper_tuned_config(), iterations=ITERS,
                            jitter_std=0.0)


class TestStragglerRevert:
    def test_revert_restores_step_time_within_1pct(self, baseline):
        """After the straggler window closes, iterations must return to
        the no-fault iteration time (exact revert, acceptance bound 1%)."""
        t_iter = baseline.stats.mean_iteration_seconds
        sched = FaultSchedule.of(StragglerGPU(
            rank=1, start_s=t_iter, duration_s=1.5 * t_iter, slowdown=3.0,
        ))
        m = measure_training(WORLD, paper_tuned_config(), iterations=ITERS,
                             jitter_std=0.0, schedule=sched)
        base_iters = baseline.stats.iteration_seconds
        fault_iters = m.stats.iteration_seconds
        assert len(fault_iters) == len(base_iters) == ITERS
        # The window covers iterations ~1-2; 3+ must match the baseline.
        for i in range(3, ITERS):
            assert fault_iters[i] == pytest.approx(base_iters[i], rel=0.01)
        # And the faulted window really was slower.
        assert max(fault_iters[1:3]) > 1.2 * max(base_iters[1:3])

    def test_straggler_is_suspected_but_never_evicted(self, baseline):
        t_iter = baseline.stats.mean_iteration_seconds
        cfg = detector_config(paper_tuned_config(), deadline_s=0.1 * t_iter)
        sched = FaultSchedule.of(StragglerGPU(
            rank=2, start_s=t_iter, duration_s=2 * t_iter, slowdown=4.0,
        ))
        m = measure_training(WORLD, cfg, iterations=ITERS, jitter_std=0.0,
                             schedule=sched)
        report = m.fault_report
        assert report["suspects"] > 0
        assert report["suspects"] == report["suspects_cleared"]
        assert report["rank_crashes"] == 0
        assert report["surviving_ranks"] == WORLD


class TestLinkFlapRetry:
    def test_flapped_rail_is_absorbed_by_retries(self, baseline2):
        t_iter = baseline2.stats.mean_iteration_seconds
        sched = FaultSchedule.of(LinkFlap(
            link=("nic:0:0", "switch:-1:1"), start_s=t_iter,
            duration_s=3 * t_iter, period_s=0.5 * t_iter,
            down_s=0.1 * t_iter,
        ))
        m = measure_training(WORLD2, paper_tuned_config(), iterations=ITERS,
                             jitter_std=0.0, schedule=sched)
        report = m.fault_report
        assert report["transfer_retries"] > 0
        assert report["transfer_timeouts"] == 0
        assert report["flap_cycles"] >= 3
        # Training still completed every iteration on every rank.
        assert all(v == ITERS for v in report["completed_iterations"].values())


class TestElasticShrink:
    def test_crash_shrinks_and_survivors_finish(self, baseline):
        t_iter = baseline.stats.mean_iteration_seconds
        cfg = detector_config(paper_tuned_config(), deadline_s=0.15 * t_iter)
        sched = FaultSchedule.of(RankCrash(rank=WORLD - 1,
                                           start_s=2.5 * t_iter))
        m = measure_training(WORLD, cfg, iterations=ITERS, jitter_std=0.0,
                             schedule=sched)
        report = m.fault_report
        assert report["rank_crashes"] == 1
        assert report["surviving_ranks"] == WORLD - 1
        completed = report["completed_iterations"]
        assert completed.get(WORLD - 1, 0) < ITERS  # the dead rank stopped
        for rank in range(WORLD - 1):
            assert completed[rank] == ITERS
        assert report["fault_phase_seconds"]["SUSPECT"] > 0
        assert report["fault_phase_seconds"]["RECOVER"] > 0

    def test_survivors_get_identical_bits_scaled_to_survivor_mean(self):
        """Replica consistency after a shrink: every survivor receives
        the same averaged tensor, and the divisor is the survivor count."""
        env, comm = make_comm(4)
        cfg = HorovodConfig.default().with_(
            cycle_time_s=1e-3, negotiation_deadline_s=5e-3, suspect_retries=1,
        )
        rt = HorovodRuntime(comm, cfg)
        results = {}

        def worker(env, rank):
            rt.submit(rank, "g", np.full(8, float(rank)))
            results[rank] = (yield rt.synchronize(rank))["g"]

        procs = [env.process(worker(env, r)) for r in range(3)]

        def crash(env):
            # Rank 3 dies before submitting anything.
            yield env.timeout(1e-4)
            rt.report_crash(3)

        env.process(crash(env))
        env.run(until=env.all_of(procs))
        rt.shutdown()
        env.run()
        expected = np.full(8, (0.0 + 1.0 + 2.0) / 3)  # survivor mean
        for rank in range(3):
            np.testing.assert_array_equal(results[rank], expected)
        for rank in range(1, 3):
            np.testing.assert_array_equal(results[rank], results[0])
        assert rt.active_ranks == [0, 1, 2]
        assert rt.stats.rank_crashes == 1

    def test_restart_rejoins_the_run(self, baseline):
        t_iter = baseline.stats.mean_iteration_seconds
        cfg = detector_config(paper_tuned_config(), deadline_s=0.15 * t_iter)
        sched = FaultSchedule.of(
            RankCrash(rank=WORLD - 1, start_s=1.5 * t_iter),
            RankRestart(rank=WORLD - 1, start_s=3.5 * t_iter),
        )
        m = measure_training(WORLD, cfg, iterations=ITERS, jitter_std=0.0,
                             schedule=sched)
        report = m.fault_report
        assert report["rank_crashes"] == 1
        assert report["rank_restarts"] == 1
        assert report["surviving_ranks"] == WORLD
        assert report["completed_iterations"].get(WORLD - 1, 0) > 0


class TestRunEnd:
    def test_run_ends_when_its_coordinator_exits(self, baseline):
        """A window still open at the end closes then; a later fault never
        fires.  The rail is one the single node never uses, so the run
        measures exactly what the unfaulted one does."""
        cfg = paper_tuned_config()
        sched = FaultSchedule.of(
            DegradedRail(link=("nic:0:0", "switch:-1:1"), start_s=0.0,
                         duration_s=1e6, factor=0.5),
            RankCrash(rank=1, start_s=1e5),
        )
        m = measure_training(WORLD, cfg, iterations=ITERS, jitter_std=0.0,
                             schedule=sched)
        assert m.stats == baseline.stats
        assert m.link_utilization == baseline.link_utilization
        report = m.fault_report
        assert report["faults_applied"] == report["faults_reverted"] == 1
        assert report["crashes"] == 0
        # The coordinator exits at its first tick after the last rank.
        run_s = sum(m.stats.iteration_seconds) + cfg.horovod.cycle_time_s
        assert 0 < report["fault_phase_seconds"]["FAULT"] <= run_s


class TestCombinedAcceptance:
    def test_straggler_flap_crash_completes_on_shrunken_world(self, baseline2):
        t_iter = baseline2.stats.mean_iteration_seconds
        cfg = detector_config(paper_tuned_config(), deadline_s=0.15 * t_iter)
        sched = FaultSchedule.of(
            StragglerGPU(rank=1, start_s=t_iter, duration_s=2 * t_iter,
                         slowdown=3.0),
            LinkFlap(link=("nic:0:0", "switch:-1:1"), start_s=t_iter,
                     duration_s=4 * t_iter, period_s=t_iter,
                     down_s=0.3 * t_iter),
            RankCrash(rank=WORLD2 - 1, start_s=2.5 * t_iter),
        )
        m = measure_training(WORLD2, cfg, iterations=ITERS, jitter_std=0.0,
                             schedule=sched)
        report = m.fault_report
        # Completed on the shrunken world…
        assert report["surviving_ranks"] == WORLD2 - 1
        for rank in range(WORLD2 - 1):
            assert report["completed_iterations"][rank] == ITERS
        # …absorbed the flaps…
        assert report["transfer_retries"] > 0
        assert report["transfer_timeouts"] == 0
        # …paid a real but bounded throughput cost…
        retained = m.images_per_second / baseline2.images_per_second
        assert 0.3 < retained < 1.0
        # …and accounted for where the resilience time went.
        phases = report["fault_phase_seconds"]
        assert phases["FAULT"] > 0
        assert phases["SUSPECT"] > 0
        assert report["suspect_seconds"] > 0
