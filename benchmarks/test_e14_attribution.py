"""E14 (extension) — efficiency attribution: where does the time go?

Decomposes default and tuned runs at 6/24/96/132 GPUs into critical-path
buckets (compute, input stall, straggler skew, exposed communication,
fusion wait, fault suspect) that sum to wall time, and checks that the
paper's tuning wins show up as a shrinking exposed-comm + fusion-wait
share rather than just a better headline number.
"""


def test_e14_efficiency_attribution(result):
    res = result("E14")
    # The decomposition is exact by construction; 2% is the hard bound.
    assert res.measured["max_bucket_sum_error"] < 0.02
    # Tuning strictly shrinks the tunable overhead share at scale.
    for gpus in (24, 96, 132):
        assert res.measured[f"overhead_delta_{gpus}"] > 0, gpus
    # The default config's overhead grows with scale (that is the story).
    assert (res.measured["overhead_share_default_132"]
            > res.measured["overhead_share_default_6"])
    # Attribution agrees with the headline efficiency ordering.
    assert (res.measured["tuned_efficiency_132gpu"]
            > res.measured["default_efficiency_132gpu"])
