"""E11 (extension) — wall-clock time to train the standard VOC recipe."""

import pytest


def test_e11_time_to_train(result):
    res = result("E11")
    # Single V100 at 6.7 img/s needs ~20 hours for 480k images.
    assert res.measured["single_gpu_hours"] == pytest.approx(20, rel=0.1)
    # At 132 GPUs the recipe takes well under an hour...
    assert res.measured["max_scale_tuned_hours"] < 0.25
    # ...and the tuning saves measurable machine time at scale.
    assert res.measured["max_scale_hours_saved"] > 0.02
    # Predicted accuracy stays near the paper's 80.8% at the 132-GPU batch.
    assert res.rows[-1]["predicted mIOU %"] > 77
