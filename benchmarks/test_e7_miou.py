"""E7 — final accuracy: 80.8% mIOU for distributed training, plus the
real npnn data-parallel run that proves the gradient path is exact."""

import pytest


def test_e7_miou_convergence_model(result):
    res = result("E7")
    # Paper: 80.8% mIOU for the distributed run, "on par with published
    # accuracy for this model".
    assert res.measured["distributed_miou"] == pytest.approx(80.8, abs=0.5)
    single = res.rows[0]["mIOU %"]
    distributed = res.rows[1]["mIOU %"]
    assert abs(single - distributed) < 1.5  # on par
    # The linear-scaling warmup is what keeps it on par.
    assert res.rows[2]["mIOU %"] < distributed


def test_e7b_npnn_real_training(result):
    res = result("E7b")
    assert res.measured["replicas_bitwise_in_sync"] == "yes"
    # Real learning on real pixels: from near-chance to strong mIOU.
    assert res.measured["initial_miou"] < 0.2
    assert res.measured["final_miou"] > 0.6
    # mIOU trend over checkpoints is upward.
    mious = [row["mIOU"] for row in res.rows]
    assert mious[-1] > mious[0]
