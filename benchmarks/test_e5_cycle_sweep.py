"""E5 — cycle-time sweep at 132 GPUs."""


def test_e5_cycle_sweep(result):
    res = result("E5")
    # Large cycles stall the backward tail measurably.
    assert res.measured["large_cycle_penalty"] > 1.05
    assert res.measured["best_cycle_ms_spectrum"] <= 2.5
    # Stall grows with cycle time under the tuned setup (ends of the
    # sweep; mid-sweep points can jitter by fractions of a ms).
    stalls = [row["GDR stall ms/iter"] for row in res.rows]
    assert stalls[-1] > 10 * stalls[0]
    assert stalls[-1] == max(stalls)
    # More frequent cycles -> more (smaller) fused ops.
    ops = [row["GDR ops/iter"] for row in res.rows]
    assert ops == sorted(ops, reverse=True)
