"""E1 — single-GPU throughput table (DLv3+ 6.7 vs ResNet-50 300 img/s)."""

import pytest


def test_e1_single_gpu(result):
    res = result("E1")
    assert res.measured["deeplab_img_per_s"] == pytest.approx(6.7, rel=0.05)
    assert res.measured["resnet50_img_per_s"] == pytest.approx(300.0, rel=0.05)
    # The ~45x per-image cost gap that motivates scaling out.
    assert 40 < res.measured["throughput_ratio"] < 50
