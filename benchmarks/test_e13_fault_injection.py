"""E13 (extension) — scheduled fault injection & resilience sweep.

E13 runs the tuned configuration through declarative fault schedules
(straggler, flapping rail, mid-run crash, and all three combined);
E13b is the static single-degraded-rail ablation it grew out of.
"""


def test_e13_fault_injection(result):
    res = result("E13")
    assert res.measured["retained_baseline"] == 1.0
    # A 3x straggler gates the synchronous barrier for its window.
    assert res.measured["retained_straggler_x3"] < 0.95
    # A 30%-duty rail flap is absorbed by transfer retries.
    assert 0.5 < res.measured["retained_rail_flap_30pct"] <= 1.0
    flap_row = next(r for r in res.rows if r["scenario"] == "rail flap 30%")
    assert flap_row["retries"] > 0
    # The crash shrinks the world by one; survivors keep training.
    crash_row = next(r for r in res.rows if r["scenario"] == "rank crash")
    assert crash_row["survivors"] == 23
    assert crash_row["suspect (ms)"] > 0
    # The combined schedule completes with bounded throughput loss.
    assert 0.3 < res.measured["retained_straggler_flap_crash"] < 1.0


def test_e13b_degraded_rail(result):
    res = result("E13b")
    # A 4x and even 20x single-rail slowdown is absorbed by overlap.
    assert res.measured["retained_at_25pct_rail"] > 0.97
    assert res.measured["retained_at_5pct_rail"] > 0.95
    # Near-total rail loss gates the synchronous allreduce hard.
    assert res.measured["retained_at_1pct_rail"] < 0.6
    # Efficiency column tracks the same story.
    effs = [float(r["efficiency"].rstrip("%")) for r in res.rows]
    assert effs[-1] < 50 < effs[0]
