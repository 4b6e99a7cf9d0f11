"""Tests for the autotuner and the timeline/compression helpers."""

import json

import numpy as np
import pytest

from repro.horovod import (
    Autotuner,
    HorovodConfig,
    Timeline,
    compress_fp16,
    decompress_fp16,
)
from repro.horovod.compression import cast_seconds
from repro.sim.units import MiB
from repro.trace import merged_chrome_trace


class TestAutotuner:
    def test_finds_grid_optimum_of_separable_objective(self):
        # Objective maximized at cycle=1ms, fusion=128MiB, hierarchical=True.
        def objective(cfg):
            score = 0.0
            score -= abs(cfg.cycle_time_s - 1e-3) * 1e3
            score -= abs(cfg.fusion_threshold_bytes - 128 * MiB) / MiB / 100
            score += 1.0 if cfg.hierarchical_allreduce else 0.0
            return score

        result = Autotuner().run(objective)
        assert result.best_config.cycle_time_s == pytest.approx(1e-3)
        assert result.best_config.fusion_threshold_bytes == 128 * MiB
        assert result.best_config.hierarchical_allreduce
        assert result.best_score == objective(result.best_config)

    def test_memoizes_evaluations(self):
        calls = []

        def objective(cfg):
            calls.append(cfg)
            return 0.0  # nothing improves: one round, all unique configs

        result = Autotuner().run(objective)
        assert len(calls) == len(set(calls)) == result.evaluations

    def test_history_records_all(self):
        result = Autotuner().run(lambda cfg: float(cfg.hierarchical_allreduce))
        assert result.evaluations == len(result.history)
        assert result.best_score == 1.0

    def test_respects_base_config(self):
        base = HorovodConfig.default().with_(compression="fp16")
        result = Autotuner().run(lambda cfg: 0.0, base=base)
        assert result.best_config.compression == "fp16"

    def test_validation(self):
        with pytest.raises(ValueError):
            Autotuner(cycle_grid=())
        with pytest.raises(ValueError):
            Autotuner(max_rounds=0)

    def test_deterministic(self):
        def objective(cfg):
            return -cfg.cycle_time_s + cfg.fusion_threshold_bytes * 1e-12

        r1 = Autotuner().run(objective)
        r2 = Autotuner().run(objective)
        assert r1.best_config == r2.best_config


class TestTimeline:
    def test_record_and_totals(self):
        tl = Timeline()
        tl.record("ALLREDUCE", "g1", 0.0, 1.0)
        tl.record("ALLREDUCE", "g2", 1.0, 1.5)
        tl.record("NEGOTIATE", "c1", 0.0, 0.25)
        assert tl.total_by_phase() == {"ALLREDUCE": 1.5, "NEGOTIATE": 0.25}
        assert len(tl.spans("ALLREDUCE")) == 2

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            Timeline().record("BOGUS", "x", 0, 1)

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError):
            Timeline().record("QUEUE", "x", 2, 1)

    def test_chrome_trace_roundtrip(self):
        tl = Timeline()
        tl.record("ALLREDUCE", "fused_x3", 0.001, 0.002)
        trace = json.loads(merged_chrome_trace(tl))
        [ev] = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert ev["name"] == "fused_x3"
        assert ev["ts"] == pytest.approx(1000)
        assert ev["dur"] == pytest.approx(1000)
        assert ev["ph"] == "X"


class TestCompression:
    def test_roundtrip_error_small(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(1000).astype(np.float32)
        back = decompress_fp16(compress_fp16(x))
        assert back.dtype == np.float32
        np.testing.assert_allclose(back, x, atol=2e-3)

    def test_compress_halves_bytes(self):
        x = np.zeros(100, dtype=np.float32)
        assert compress_fp16(x).nbytes == x.nbytes // 2

    def test_decompress_rejects_non_fp16(self):
        with pytest.raises(ValueError):
            decompress_fp16(np.zeros(4, dtype=np.float32))

    def test_cast_seconds(self):
        assert cast_seconds(1000, 1000.0) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            cast_seconds(-1, 1.0)
        with pytest.raises(ValueError):
            cast_seconds(1, 0.0)
