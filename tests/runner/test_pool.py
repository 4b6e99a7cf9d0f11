"""Tests for the Runner: ordering, dedup, caching, progress, counters."""

import pickle

import pytest

from repro.core import paper_default_config, paper_tuned_config
from repro.runner import ResultCache, Runner, RunnerError, TrainPoint
from repro.telemetry import MetricRegistry


def _points(n=3, **overrides):
    configs = [paper_tuned_config(), paper_default_config()]
    base = dict(iterations=2, jitter_std=0.0)
    base.update(overrides)
    return [
        TrainPoint(gpus=2 + i, config=configs[i % 2], **base)
        for i in range(n)
    ]


def test_serial_matches_direct_execution():
    points = _points(2)
    results = Runner().run(points)
    assert [m.images_per_second for m in results] == \
        [p.execute().images_per_second for p in points]


def test_parallel_merge_preserves_input_order():
    points = _points(4)
    serial = Runner().run(points)
    parallel = Runner(workers=2).run(points)
    for s, p in zip(serial, parallel):
        assert s.images_per_second == p.images_per_second
        assert s.gpus == p.gpus
    assert [m.gpus for m in parallel] == [p.gpus for p in points]


def test_parallel_results_bit_identical_to_serial():
    points = _points(2)
    serial = Runner().run(points)
    parallel = Runner(workers=2).run(points)
    for s, p in zip(serial, parallel):
        assert pickle.dumps(s.stats) == pickle.dumps(p.stats)


def test_batch_dedup_executes_once():
    point = _points(1)[0]
    runner = Runner()
    results = runner.run([point, point, point])
    assert runner.stats.points == 3
    assert runner.stats.executed == 1
    assert runner.stats.deduplicated == 2
    assert results[0] is results[1] is results[2]


def test_cache_hit_skips_execution(tmp_path):
    cache = ResultCache(directory=tmp_path)
    points = _points(2)
    cold = Runner(cache=cache)
    cold.run(points)
    assert cold.stats.executed == 2
    warm = Runner(cache=cache)
    warm_results = warm.run(points)
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == 2
    assert [m.images_per_second for m in warm_results] == \
        [m.images_per_second for m in cold.run(points)]


def test_cache_hit_value_bit_identical(tmp_path):
    cache = ResultCache(directory=tmp_path)
    point = _points(1)[0]
    (cold,) = Runner(cache=cache).run([point])
    (warm,) = Runner(cache=cache).run([point])
    assert pickle.dumps(warm) == pickle.dumps(cold)


def test_progress_callback_sees_every_point(tmp_path):
    seen = []
    cache = ResultCache(directory=tmp_path)
    points = _points(3)
    runner = Runner(cache=cache,
                    progress=lambda done, total, point, cached:
                    seen.append((done, total, point.gpus, cached)))
    runner.run(points)
    assert [(d, t) for d, t, _, _ in seen] == [(1, 3), (2, 3), (3, 3)]
    assert all(not cached for _, _, _, cached in seen)
    seen.clear()
    runner.run(points)
    assert all(cached for _, _, _, cached in seen)


def test_telemetry_counters(tmp_path):
    registry = MetricRegistry()
    cache = ResultCache(directory=tmp_path)
    runner = Runner(cache=cache, registry=registry)
    points = _points(2)
    runner.run(points)
    runner.run(points)
    points_total = registry.get("runner_points_total")
    assert points_total.labels(status="executed").value == 2
    assert points_total.labels(status="cache_hit").value == 2
    assert registry.get("runner_batches_total").default.value == 2
    assert registry.get("runner_execute_seconds_total").default.value > 0
    assert registry.get("runner_workers").default.value == 0


def test_failure_raises_runner_error():
    bad = TrainPoint(gpus=0, config=paper_tuned_config())
    with pytest.raises(RunnerError, match="point failed"):
        Runner().run([bad])


def test_failure_in_pool_raises_runner_error():
    bad = TrainPoint(gpus=0, config=paper_tuned_config())
    ok = _points(1)[0]
    with pytest.raises(RunnerError, match="point failed"):
        Runner(workers=2).run([bad, ok])


def test_negative_workers_rejected():
    with pytest.raises(ValueError):
        Runner(workers=-1)


def test_meta_reports_workers_and_cache(tmp_path):
    runner = Runner(workers=2, cache=ResultCache(directory=tmp_path))
    runner.run(_points(2))
    meta = runner.meta()
    assert meta["workers"] == 2
    assert meta["points"] == 2
    assert meta["cache"]["entries"] == 2
