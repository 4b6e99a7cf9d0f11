"""E16 (extension) — critical-path diagnosis from span traces.

Walks each iteration's span DAG to the exact simulated critical path and
checks the paper's tuning story at the span level: the share of the
critical path spent in exposed allreduce collapses when tensor fusion +
MVAPICH2-GDR tuning is applied, and the per-span decomposition reconciles
with E14's coarse bucket attribution.
"""


def test_e16_critical_path(result):
    res = result("E16")
    # The span walk and the telemetry attribution are two views of the
    # same simulated run; they must agree bucket-for-bucket.
    assert res.measured["max_reconcile_error_s"] < 1e-6
    # Path segments tile the wall exactly (float-tolerance bound).
    for key, value in res.measured.items():
        if key.startswith("allreduce_cp_share_"):
            assert 0.0 <= value <= 1.0, key
    # The tuning win at max scale: exposed-allreduce share collapses.
    assert (res.measured["allreduce_cp_share_tuned_132"]
            < res.measured["allreduce_cp_share_default_132"])
    assert res.measured["allreduce_share_drop"] > 0
    # The result envelope carries a machine-readable diagnosis.
    assert res.trace_summary is not None
    assert res.trace_summary["critical_path_ms"] > 0
