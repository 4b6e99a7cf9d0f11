"""E10 — the staged tuning procedure rediscovers a tuned configuration."""


def test_e10_staged_tuning(result):
    res = result("E10")
    # Stage 1 must pick the GDR library.
    assert "MVAPICH2-GDR" in res.measured["staged_choice"]
    # The runtime autotuner lands on a comparable knob setting with a
    # comparable measurement budget.
    assert res.measured["autotune_measurements"] < 3 * res.measured[
        "staged_measurements"
    ]
    # The procedure's pick performs on par with the hand-tuned config at
    # full scale (within ~3 efficiency points) — the paper's central
    # methodological claim: knob tuning alone reaches near-linear scaling.
    pick = res.measured["tuner_pick_eff_at_scale"]
    hand = res.measured["hand_tuned_eff_at_scale"]
    assert pick > 85
    assert abs(pick - hand) < 4
