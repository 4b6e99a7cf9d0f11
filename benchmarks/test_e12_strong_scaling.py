"""E12 (extension) — strong vs weak scaling of the tuned configuration."""


def test_e12_strong_vs_weak(result):
    res = result("E12")
    # Weak scaling stays near-linear (the paper's regime).
    assert float(res.rows[-1]["weak eff"].rstrip("%")) > 95
    # Strong scaling holds up well down to batch 1 per GPU...
    assert res.measured["strong_scaling_efficiency"] > 90
    # ...but is measurably below weak scaling at the smallest batch.
    strong_col = "strong img/s (G=96)"
    assert res.rows[-1][strong_col] <= res.rows[-1]["weak img/s (bs8/GPU)"]
    # Iteration time shrinks as the global batch spreads thinner.
    iters = [row["strong iter (ms)"] for row in res.rows]
    assert iters == sorted(iters, reverse=True)
