"""Tests for the Horovod runtime: negotiation, fusion, data correctness."""

import numpy as np
import pytest

from repro.horovod import HorovodConfig, HorovodRuntime, Timeline
from repro.mpi import VirtualBuffer
from repro.sim.units import KiB, MiB

from tests.mpi.conftest import make_comm


def make_runtime(p=4, config=None, **kwargs):
    env, comm = make_comm(p)
    cfg = config or HorovodConfig.default()
    return env, HorovodRuntime(comm, cfg, **kwargs)


def drive(env, runtime, submissions):
    """Run worker processes that submit `submissions[rank]` = list of
    (delay, name, payload), then synchronize; returns
    {(rank, name): result}."""
    results = {}

    def worker(env, rank, items):
        for delay, name, payload in items:
            yield env.timeout(delay)
            runtime.submit(rank, name, payload)
        averaged = yield runtime.synchronize(rank)
        for name, value in averaged.items():
            results[(rank, name)] = value

    procs = [
        env.process(worker(env, r, items)) for r, items in enumerate(submissions)
    ]
    env.run(until=env.all_of(procs))
    runtime.shutdown()
    env.run()
    return results


def test_single_tensor_averaged_across_ranks():
    env, rt = make_runtime(4)
    subs = [[(0.0, "g", np.full(8, float(r)))] for r in range(4)]
    results = drive(env, rt, subs)
    for r in range(4):
        np.testing.assert_allclose(results[(r, "g")], np.full(8, 1.5))
    assert rt.stats.tensors_reduced == 1
    assert rt.stats.fused_ops == 1


def test_result_preserves_shape():
    env, rt = make_runtime(2)
    subs = [[(0.0, "w", np.ones((3, 4)) * (r + 1))] for r in range(2)]
    results = drive(env, rt, subs)
    assert results[(0, "w")].shape == (3, 4)
    np.testing.assert_allclose(results[(0, "w")], np.full((3, 4), 1.5))


def test_fusion_packs_multiple_tensors_into_one_op():
    cfg = HorovodConfig.default().with_(fusion_threshold_bytes=1 * MiB)
    env, rt = make_runtime(2, cfg)
    subs = [
        [(0.0, f"t{i}", np.full(16, float(r + i))) for i in range(5)]
        for r in range(2)
    ]
    results = drive(env, rt, subs)
    assert rt.stats.fused_ops == 1
    assert rt.stats.tensors_reduced == 5
    for i in range(5):
        np.testing.assert_allclose(results[(0, f"t{i}")], np.full(16, i + 0.5))


def test_zero_fusion_threshold_one_op_per_tensor():
    cfg = HorovodConfig.default().with_(fusion_threshold_bytes=0)
    env, rt = make_runtime(2, cfg)
    subs = [
        [(0.0, f"t{i}", np.ones(4) * r) for i in range(3)] for r in range(2)
    ]
    drive(env, rt, subs)
    assert rt.stats.fused_ops == 3


def test_tensor_waits_for_all_ranks():
    """A tensor submitted by only some ranks is not reduced."""
    env, rt = make_runtime(2)
    rt.submit(0, "lonely", np.ones(4))
    ev = rt.synchronize(0)
    env.run(until=0.1)  # many cycles pass
    assert not ev.triggered
    assert rt.stats.fused_ops == 0
    rt.shutdown()
    env.run()


def test_straggler_delays_reduction():
    """Reduction completes only after the slowest rank submits."""
    env, rt = make_runtime(2)
    subs = [[(0.0, "g", np.ones(4))], [(0.05, "g", np.ones(4) * 3)]]
    results = drive(env, rt, subs)
    np.testing.assert_allclose(results[(0, "g")], np.full(4, 2.0))
    assert env.now > 0.05


def test_duplicate_submission_rejected():
    env, rt = make_runtime(2)
    rt.submit(0, "g", np.ones(4))
    with pytest.raises(ValueError, match="already submitted"):
        rt.submit(0, "g", np.ones(4))


def test_size_mismatch_rejected():
    env, rt = make_runtime(2)
    rt.submit(0, "g", np.ones(4))
    with pytest.raises(ValueError, match="size mismatch"):
        rt.submit(1, "g", np.ones(5))


def test_bad_rank_and_payload_rejected():
    env, rt = make_runtime(2)
    with pytest.raises(ValueError):
        rt.submit(5, "g", np.ones(4))
    with pytest.raises(TypeError):
        rt.submit(0, "g", [1, 2, 3])


def test_virtual_mode_returns_buffers():
    env, rt = make_runtime(3)
    subs = [[(0.0, "g", VirtualBuffer(64 * KiB))] for _ in range(3)]
    results = drive(env, rt, subs)
    assert all(isinstance(v, VirtualBuffer) for v in results.values())
    assert results[(0, "g")].nbytes == 64 * KiB
    assert rt.stats.bytes_reduced == 64 * KiB


def test_cycle_time_quantizes_start():
    """Nothing is reduced before the first cycle tick."""
    cfg = HorovodConfig.default().with_(cycle_time_s=10e-3)
    env, rt = make_runtime(2, cfg)
    subs = [[(0.0, "g", np.ones(4))] for _ in range(2)]
    drive(env, rt, subs)
    assert env.now >= 10e-3


def test_response_cache_hits_on_repeat_pattern():
    """Repeated iterations submit the same tensor set -> bitvector path."""
    cfg = HorovodConfig.default().with_(cache_enabled=True)
    env, rt = make_runtime(2, cfg)

    def worker(env, rank):
        for _ in range(3):
            rt.submit(rank, "g", np.ones(4))
            yield rt.synchronize(rank)

    procs = [env.process(worker(env, r)) for r in range(2)]
    env.run(until=env.all_of(procs))
    rt.shutdown()
    env.run()
    assert rt.stats.cache_hits >= 1
    assert rt.stats.negotiations > rt.stats.cache_hits


def test_cache_disabled_never_hits():
    cfg = HorovodConfig.default().with_(cache_enabled=False)
    env, rt = make_runtime(2, cfg)

    def worker(env, rank):
        for _ in range(3):
            rt.submit(rank, "g", np.ones(4))
            yield rt.synchronize(rank)

    procs = [env.process(worker(env, r)) for r in range(2)]
    env.run(until=env.all_of(procs))
    rt.shutdown()
    env.run()
    assert rt.stats.cache_hits == 0


def test_fp16_compression_result_close_and_faster_wire():
    cfg = HorovodConfig.default().with_(compression="fp16")
    env, rt = make_runtime(2, cfg)
    rng = np.random.default_rng(0)
    data = [rng.standard_normal(256).astype(np.float32) for _ in range(2)]
    subs = [[(0.0, "g", data[r])] for r in range(2)]
    results = drive(env, rt, subs)
    expected = (data[0] + data[1]) / 2
    np.testing.assert_allclose(results[(0, "g")], expected, atol=1e-2)
    assert rt.stats.compression_seconds > 0


def test_timeline_records_phases():
    tl = Timeline()
    env, rt = make_runtime(2, timeline=tl)
    subs = [[(0.0, "a", np.ones(4)), (0.0, "b", np.ones(4))] for _ in range(2)]
    drive(env, rt, subs)
    phases = {ev.phase for ev in tl.events}
    assert "NEGOTIATE" in phases and "ALLREDUCE" in phases
    assert "MEMCPY_IN" in phases  # two tensors fused -> pack copy happened
    totals = tl.total_by_phase()
    assert totals["ALLREDUCE"] > 0


def test_singleton_skips_memcpy():
    tl = Timeline()
    env, rt = make_runtime(2, timeline=tl)
    subs = [[(0.0, "only", np.ones(4))] for _ in range(2)]
    drive(env, rt, subs)
    assert tl.spans("MEMCPY_IN") == []


def test_queue_phase_recorded():
    """Tensors wait from readiness-on-all-ranks to execution (cycle wait)."""
    tl = Timeline()
    cfg = HorovodConfig.default().with_(cycle_time_s=10e-3)
    env, rt = make_runtime(2, cfg, timeline=tl)
    subs = [[(0.0, "g", np.ones(4))] for _ in range(2)]
    drive(env, rt, subs)
    queue_spans = tl.spans("QUEUE")
    assert queue_spans
    # Ready at t=0; first cycle fires at 10 ms; queue span covers it.
    assert queue_spans[0].duration_s == pytest.approx(10e-3, rel=0.2)


def test_hierarchical_config_runs():
    cfg = HorovodConfig.default().with_(hierarchical_allreduce=True)
    env, rt = make_runtime(12, cfg)  # 2 nodes
    subs = [[(0.0, "g", np.full(8, float(r)))] for r in range(12)]
    results = drive(env, rt, subs)
    np.testing.assert_allclose(results[(0, "g")], np.full(8, 5.5))


def test_stats_mean_fusion_size():
    env, rt = make_runtime(2)
    subs = [[(0.0, "g", np.ones(8, dtype=np.float32))] for _ in range(2)]
    drive(env, rt, subs)
    assert rt.stats.mean_fusion_size == 32
    empty = type(rt.stats)()
    assert empty.mean_fusion_size == 0.0


# -- synchronize: one completion event per rank --------------------------------
def test_synchronize_fires_at_the_end_of_the_ranks_last_group():
    """The event fires when the last group holding the rank's tensors
    ends: the last ALLREDUCE or MEMCPY_OUT end in the timeline."""
    tl = Timeline()
    cfg = HorovodConfig.default().with_(fusion_threshold_bytes=64)
    env, rt = make_runtime(2, cfg, timeline=tl)
    # 32 B tensors; rank 1's delays spread them over three 5 ms cycles:
    # {t0, t1} fused, t2 alone, {t3, t4} fused.
    delays = [[0.0] * 5, [0.0, 0.0, 0.006, 0.006, 0.0]]
    fired = {}

    def worker(env, rank):
        for i, delay in enumerate(delays[rank]):
            yield env.timeout(delay)
            rt.submit(rank, f"t{i}", np.full(4, float(rank)))
        yield rt.synchronize(rank)
        fired[rank] = env.now

    procs = [env.process(worker(env, r)) for r in range(2)]
    env.run(until=env.all_of(procs))
    rt.shutdown()
    env.run()
    assert [ev.label for ev in tl.spans("ALLREDUCE")] == [
        "fused_x2", "t2", "fused_x2"]
    last_end = max(ev.end_s for ev in tl.events
                   if ev.phase in ("ALLREDUCE", "MEMCPY_OUT"))
    assert last_end == tl.spans("MEMCPY_OUT")[-1].end_s
    assert fired == {0: last_end, 1: last_end}


@pytest.mark.parametrize("virtual", [False, True], ids=["numpy", "virtual"])
def test_synchronize_carries_every_tensor_since_the_previous_call(virtual):
    env, rt = make_runtime(3)
    rounds = [["a", "b", "c"], ["d"]]
    got = {}

    def payload(rank):
        return VirtualBuffer(32) if virtual else np.full(8, float(rank))

    def worker(env, rank):
        for k, names in enumerate(rounds):
            for name in names:
                yield env.timeout(1e-4)
                rt.submit(rank, name, payload(rank))
            got[rank, k] = yield rt.synchronize(rank)

    procs = [env.process(worker(env, r)) for r in range(3)]
    env.run(until=env.all_of(procs))
    rt.shutdown()
    env.run()
    for rank in range(3):
        for k, names in enumerate(rounds):
            averaged = got[rank, k]
            assert sorted(averaged) == names
            for value in averaged.values():
                if virtual:
                    assert isinstance(value, VirtualBuffer)
                    assert value.nbytes == 32
                else:
                    np.testing.assert_array_equal(value, np.full(8, 1.0))


def test_synchronize_fires_at_once_when_nothing_is_outstanding():
    env, rt = make_runtime(2)
    ev = rt.synchronize(0)  # nothing submitted yet
    assert ev.triggered and ev.value == {}
    subs = [[(0.0, "g", np.ones(4))] for _ in range(2)]
    drive(env, rt, subs)  # rank 0 collects "g" here
    again = rt.synchronize(0)
    assert again.triggered and again.value == {}


def _detector_runtime(p=3):
    cfg = HorovodConfig.default().with_(
        cycle_time_s=1e-3, negotiation_deadline_s=5e-3, suspect_retries=1,
    )
    return make_runtime(p, cfg)


def test_synchronize_delivers_consensus_to_an_extra_submitter():
    """Rank 2 rejoins after "g" was snapshot ready on ranks 0 and 1 but
    before it ran: it takes the survivors' average, at their instant."""
    env, rt = _detector_runtime()
    got, fired = {}, {}

    def survivor(env, rank):
        rt.submit(rank, "h", np.ones(4))  # waits on rank 2 until evicted
        yield rt.synchronize(rank)
        rt.submit(rank, "g", np.full(8, 1.0 + 2 * rank))  # ready at once
        got[rank] = (yield rt.synchronize(rank))["g"]
        fired[rank] = env.now

    def crash_and_rejoin(env):
        yield env.timeout(1e-4)
        rt.report_crash(2)
        while rt.stats.fused_ops < 1:  # "h" reduced without rank 2
            yield env.timeout(1e-4)
        yield env.timeout(rt.config.cycle_time_s / 2)  # before the next tick
        rt.report_restart(2)
        rt.submit(2, "g", np.full(8, 100.0))
        got[2] = (yield rt.synchronize(2))["g"]
        fired[2] = env.now

    for rank in range(2):
        env.process(survivor(env, rank))
    env.process(crash_and_rejoin(env))
    env.run(until=1.0)
    rt.shutdown()
    env.run()
    assert rt.stats.rank_crashes == 1 and rt.stats.rank_restarts == 1
    assert rt.stats.fused_ops == 2  # "g" ran once, over ranks 0 and 1
    assert sorted(got) == [0, 1, 2]
    for rank in range(3):
        np.testing.assert_array_equal(got[rank], np.full(8, 2.0))
    assert fired[2] == fired[0] == fired[1]


def test_restarted_rank_does_not_inherit_its_pre_crash_count():
    """Rank 2's "x" is reduced without it after its eviction, so it is
    never handed back; the rank's new life must not wait for it."""
    env, rt = _detector_runtime()
    got = {}

    def script(env):
        rt.submit(2, "x", np.ones(4))  # rank 2's last act before it dies
        rt.report_crash(2)
        for r in (0, 1):
            rt.submit(r, "h", np.ones(4))  # waits on rank 2 until evicted
        yield env.all_of([rt.synchronize(r) for r in (0, 1)])
        for r in (0, 1):
            rt.submit(r, "x", np.ones(4))  # ready without rank 2
        yield env.all_of([rt.synchronize(r) for r in (0, 1)])
        yield from rt.drain_rank(2)
        rt.report_restart(2)
        for r in range(3):
            rt.submit(r, "y", np.full(4, float(r)))
        for r in range(3):
            got[r] = yield rt.synchronize(r)

    env.process(script(env))
    env.run(until=1.0)
    rt.shutdown()
    env.run()
    assert rt.stats.rank_crashes == 1 and rt.stats.rank_restarts == 1
    assert sorted(got) == [0, 1, 2]
    for r in range(3):
        assert list(got[r]) == ["y"]
        np.testing.assert_array_equal(got[r]["y"], np.full(4, 1.0))
