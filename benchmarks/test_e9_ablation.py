"""E9 — which tuning step buys what, at 132 GPUs."""


def test_e9_ablation(result):
    res = result("E9")
    by_name = {r["configuration"]: r["img/s"] for r in res.rows}
    # The library swap alone recovers most of the gap...
    assert by_name["default + MVAPICH2-GDR only"] > 1.15 * by_name["default"]
    # ...the knob changes alone (hierarchical on Spectrum) also recover it
    # (one node-leader per rail removes the injection contention that the
    # default's flat doubling algorithm suffers)...
    assert by_name["tuned - GDR (Spectrum + tuned knobs)"] > 1.15 * by_name["default"]
    # ...and full tuning is at least as good as any partial variant.
    full = by_name["tuned (all steps)"]
    assert full >= 0.99 * max(by_name.values())
    # The default configuration is the unique poor one.
    assert res.measured["default_is_the_unique_poor_config"] == "yes"
    assert res.measured["full_tuning_gain"] > 1.2
