"""Scaled-down runs of every experiment driver (structure + shape)."""

import pytest

from repro.bench import experiments as E
from repro.sim.units import MiB

pytestmark = pytest.mark.slow


class TestE1:
    def test_matches_paper_numbers(self):
        res = E.e1_single_gpu_throughput(iterations=2)
        assert res.measured["deeplab_img_per_s"] == pytest.approx(6.7, rel=0.05)
        assert res.measured["resnet50_img_per_s"] == pytest.approx(300, rel=0.05)
        assert res.measured["throughput_ratio"] == pytest.approx(44.8, rel=0.1)


class TestE2:
    def test_distribution_shape(self):
        res = E.e2_tensor_distribution()
        assert res.measured["tensor_count"] == 440
        # Most tensors are tiny, most bytes are in the few big ones.
        assert res.rows[0]["tensors"] > 200
        assert float(res.rows[-1]["share of bytes"].rstrip("%")) > 90


class TestE3:
    def test_gdr_wins_everywhere_small_scale(self):
        res = E.e3_osu_allreduce(gpus=12, iterations=2,
                                 sizes=(64, 64 * 1024, 16 * MiB))
        assert res.measured["gdr_faster_at_all_sizes"] == "yes"
        assert res.measured["small_msg_speedup"] > 2


class TestE4:
    def test_small_fusion_has_most_ops(self):
        res = E.e4_fusion_sweep(gpus=6, iterations=2,
                                thresholds=(0, 64 * MiB))
        assert res.rows[0]["Spectrum ops/iter"] > res.rows[1]["Spectrum ops/iter"]
        assert (res.rows[0]["Spectrum allreduce ms/iter"]
                > res.rows[1]["Spectrum allreduce ms/iter"])


class TestE5:
    def test_extreme_cycles_tracked(self):
        res = E.e5_cycle_sweep(gpus=6, iterations=2, cycles_ms=(1.0, 50.0))
        assert res.rows[0]["GDR ops/iter"] > res.rows[1]["GDR ops/iter"]
        assert res.rows[0]["GDR stall ms/iter"] <= res.rows[1]["GDR stall ms/iter"]


class TestE6E8:
    @pytest.fixture(scope="class")
    def e6(self):
        return E.e6_scaling_comparison(gpu_counts=(1, 6, 12), iterations=2)

    def test_rows_cover_counts(self, e6):
        assert [r["GPUs"] for r in e6.rows] == [1, 6, 12]

    def test_efficiency_reasonable_small_scale(self, e6):
        for row in e6.rows:
            eff = float(row["tuned eff"].rstrip("%"))
            assert 80 < eff <= 101

    def test_e8_derives_from_e6(self, e6):
        res = E.e8_efficiency_table(e6=e6)
        assert len(res.rows) == len(e6.rows)
        assert "gain (points)" in res.rows[0]


class TestE7:
    def test_convergence_model_table(self):
        res = E.e7_miou()
        assert res.measured["distributed_miou"] == pytest.approx(80.8, abs=0.5)
        # Warmup matters: dropping it costs accuracy.
        assert res.rows[2]["mIOU %"] < res.rows[1]["mIOU %"]
        # Distributed stays close to the single-GPU baseline.
        assert res.rows[0]["mIOU %"] - res.rows[1]["mIOU %"] < 1.5

    def test_npnn_real_training_learns(self):
        res = E.e7_npnn_training(steps=20, world=2)
        assert res.measured["replicas_bitwise_in_sync"] == "yes"
        assert res.measured["final_miou"] > res.measured["initial_miou"]


class TestE9:
    def test_variants_present(self):
        res = E.e9_ablation(gpus=12, iterations=2)
        names = [r["configuration"] for r in res.rows]
        assert "default" in names and "tuned (all steps)" in names
        assert "tuned + fp16 compression" in names
        assert len(names) == 7


class TestE12:
    def test_weak_and_strong_columns(self):
        res = E.e12_strong_vs_weak_scaling(gpu_counts=(6, 12),
                                           global_batch=24, iterations=2)
        assert res.rows[0]["strong bs/GPU"] == 4
        assert res.rows[1]["strong bs/GPU"] == 2
        assert res.measured["strong_scaling_efficiency"] > 80

    def test_indivisible_batch_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="divisible"):
            E.e12_strong_vs_weak_scaling(gpu_counts=(7,), global_batch=24,
                                         iterations=2)


class TestE13:
    def test_structure_small_scale(self):
        res = E.e13_degraded_rail(gpus=12, iterations=2,
                                  factors=(1.0, 0.5))
        assert len(res.rows) == 2
        assert "retained_at_50pct_rail" in res.measured
        # At 12 GPUs everything hides: retention ~1.
        assert res.measured["retained_at_50pct_rail"] > 0.95


class TestE10:
    def test_probe_only(self):
        res = E.e10_autotune_vs_staged(probe_gpus=6, iterations=2,
                                       validate=False, run_autotuner=False)
        assert res.measured["staged_measurements"] == 10
        assert "MVAPICH2-GDR" in res.measured["staged_choice"]

    def test_autotuner_comparison_included(self):
        res = E.e10_autotune_vs_staged(probe_gpus=6, iterations=2,
                                       validate=False, run_autotuner=True)
        methods = {row["method"] for row in res.rows}
        assert methods == {"staged", "autotune"}
        assert res.measured["autotune_measurements"] >= 5


class TestE17:
    def test_prefix_memo_tiny_ladder(self):
        res = E.e17_prefix_memo(ladder=(2, 3), gpus=2)
        assert res.measured["prefix_bit_identical"] == 1.0
        # Only the largest member is simulated; the 2-iteration member
        # resumes from its boundary checkpoint.
        assert res.measured["prefix_iterations_simulated"] == 3
        assert res.measured["prefix_iterations_reference"] == 5
        assert res.rows[0]["bit identical"] == "yes"
