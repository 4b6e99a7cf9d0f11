"""E6 — the headline scaling comparison up to 132 GPUs.

Reproduces the abstract's quantitative claims: tuned Horovod +
MVAPICH2-GDR reaches ~92% scaling efficiency at 132 GPUs; default
Horovod + Spectrum MPI sits ~24 points lower; the tuning is worth ~1.3×
in end-to-end training throughput.
"""


def test_e6_scaling(result):
    res = result("E6")
    measured = res.measured
    # Paper: 92% tuned efficiency at 132 GPUs (ours within a few points).
    assert 88 <= measured["tuned_efficiency_at_132"] <= 97
    # Paper: default ≈ 92/1.3 ≈ 71% (ours within several points).
    assert 60 <= measured["default_efficiency_at_132"] <= 78
    # Paper: 1.3x speedup from tuning at 132 GPUs.
    assert 1.2 <= measured["speedup_at_132"] <= 1.5
    # Paper: +23.9 efficiency points.
    assert 18 <= measured["efficiency_gain_points"] <= 30
    # Tuned efficiency declines gently with scale.
    tuned_effs = [float(r["tuned eff"].rstrip("%")) for r in res.rows]
    assert tuned_effs[0] >= 96  # 1 GPU is ~ideal (jitter-mean only)
    assert min(tuned_effs) > 85
