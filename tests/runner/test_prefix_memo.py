"""Gate for prefix memoization (:mod:`repro.runner.prefix`).

A memoized sweep must be indistinguishable from running every point
fresh: same stats, same timeline events, same runtime stats, same link
utilization — the resume contract's comparisons, kernel event counts
excluded.  The tests also pin the planner (who groups with whom), the
accounting (how many iterations were actually simulated), the
:class:`~repro.runner.prefix.PrefixStore` round-trip, and result-cache
integration.
"""

import pickle

import pytest

from repro.core import paper_default_config, paper_tuned_config
from repro.core.sweep import clear_profile_cache
from repro.faults import FaultSchedule, StragglerGPU
from repro.runner import (
    PrefixStore,
    ResultCache,
    Runner,
    TrainPoint,
    prefix_run,
    run_with_prefix_memo,
)
from repro.runner.prefix import ladder_key, memoizable, plan_groups


def assert_measurement_equal(memo, fresh):
    """The resume-contract comparison: everything but kernel counters."""
    assert pickle.dumps(memo.stats) == pickle.dumps(fresh.stats)
    assert pickle.dumps(memo.runtime_stats) == \
        pickle.dumps(fresh.runtime_stats)
    assert pickle.dumps(memo.link_utilization) == \
        pickle.dumps(fresh.link_utilization)
    assert len(memo.timeline.events) == len(fresh.timeline.events)
    for ours, theirs in zip(memo.timeline.events, fresh.timeline.events):
        assert pickle.dumps(ours) == pickle.dumps(theirs)


def fresh_result(point):
    clear_profile_cache()
    return point.execute()


def test_plan_groups_partitions_ladders_from_singletons():
    tuned, default = paper_tuned_config(), paper_default_config()
    ladder = [TrainPoint(gpus=3, config=tuned, iterations=n, seed=1)
              for n in (2, 4)]
    other_seed = TrainPoint(gpus=3, config=tuned, iterations=2, seed=2)
    other_cfg = TrainPoint(gpus=3, config=default, iterations=2, seed=1)
    faulty = TrainPoint(
        gpus=3, config=tuned, iterations=8, seed=1,
        schedule=FaultSchedule.of(
            StragglerGPU(rank=1, start_s=0.1, duration_s=1.0, slowdown=2.0)
        ),
    )
    points = [ladder[0], other_seed, ladder[1], other_cfg, faulty]
    groups, singles = plan_groups(points)
    assert len(groups) == 1
    (members,) = groups.values()
    assert [idx for idx, _ in members] == [0, 2]
    assert singles == [1, 3, 4]
    # Knob hash identity: ladder members share it, others don't.
    assert ladder_key(ladder[0]) == ladder_key(ladder[1])
    assert ladder_key(other_seed) != ladder_key(ladder[0])
    assert not memoizable(faulty)


def test_memoized_ladder_matches_fresh_runs():
    tuned = paper_tuned_config()
    points = [TrainPoint(gpus=3, config=tuned, iterations=n, seed=1)
              for n in (2, 3, 5)]
    results, stats = prefix_run(points)
    assert stats.groups == 1
    assert stats.memoized_points == 2
    # One 5-iteration run replaces 2 + 3 + 5 reference iterations.
    assert stats.iterations_simulated == 5
    assert stats.iterations_reference == 10
    for point, memo in zip(points, results):
        assert_measurement_equal(memo, fresh_result(point))


def test_duplicate_points_share_one_result():
    tuned = paper_tuned_config()
    a = TrainPoint(gpus=2, config=tuned, iterations=2, seed=3)
    b = TrainPoint(gpus=2, config=tuned, iterations=4, seed=3)
    results = run_with_prefix_memo([a, b, a])
    assert results[0] is results[2]
    assert_measurement_equal(results[0], fresh_result(a))


def test_non_memoizable_points_run_fresh():
    tuned = paper_tuned_config()
    traced = TrainPoint(gpus=2, config=tuned, iterations=2, seed=0,
                        trace="spans")
    telemetered = TrainPoint(gpus=2, config=tuned, iterations=3, seed=0,
                             trace="links")
    assert not memoizable(traced)
    assert not memoizable(telemetered)
    results, stats = prefix_run([traced, telemetered])
    assert stats.groups == 0 and stats.memoized_points == 0
    assert results[0].trace is not None
    assert results[1].trace is not None


def test_prefix_store_roundtrip_extends_ladders(tmp_path):
    tuned = paper_tuned_config()
    store = PrefixStore(tmp_path / "prefixes")
    first = [TrainPoint(gpus=3, config=tuned, iterations=n, seed=7)
             for n in (2, 4)]
    _, stats1 = prefix_run(first, store=store)
    assert stats1.store_hits == 0
    assert stats1.iterations_simulated == 4
    # A later sweep extends the same ladder: the stored boundary-2
    # checkpoint seeds everything, including the new largest member.
    second = first + [TrainPoint(gpus=3, config=tuned, iterations=6, seed=7)]
    results, stats2 = prefix_run(second, store=store)
    assert stats2.store_hits >= 2
    # Resume from boundary 2 → only 4 new iterations for the it=6 point.
    assert stats2.iterations_simulated == 4
    for point, memo in zip(second, results):
        assert_measurement_equal(memo, fresh_result(point))


def test_memoized_results_land_in_the_result_cache(tmp_path):
    tuned = paper_tuned_config()
    cache = ResultCache(tmp_path / "cache")
    runner = Runner(cache=cache)
    points = [TrainPoint(gpus=2, config=tuned, iterations=n, seed=9)
              for n in (2, 4)]
    run_with_prefix_memo(points, runner=runner)
    # A later plain (non-memoized) run of the same points is all hits.
    runner2 = Runner(cache=cache)
    replay = runner2.run(points)
    assert runner2.stats.cache_hits == len(points)
    for point, memo in zip(points, replay):
        assert_measurement_equal(memo, fresh_result(point))


def test_fallback_when_capture_skipped(monkeypatch):
    """A ladder whose boundary captures never land (e.g. non-quiescent
    barriers) still returns correct results via fresh-run fallback."""
    import dataclasses

    import repro.core.sweep as sweep_mod

    real = sweep_mod.measure_training

    def no_captures(*args, **kwargs):
        m = real(*args, **kwargs)
        return dataclasses.replace(m, checkpoints=None)

    monkeypatch.setattr(sweep_mod, "measure_training", no_captures)
    tuned = paper_tuned_config()
    points = [TrainPoint(gpus=2, config=tuned, iterations=n, seed=11)
              for n in (2, 4)]
    results, stats = prefix_run(points)
    monkeypatch.undo()
    assert stats.memoized_points == 0
    # 4 for the ladder run + 2 for the fallback fresh run of it=2.
    assert stats.iterations_simulated == 6
    for point, memo in zip(points, results):
        assert_measurement_equal(memo, fresh_result(point))
