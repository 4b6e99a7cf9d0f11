"""E8 — per-scale scaling-efficiency table (default vs tuned)."""


def test_e8_efficiency_table(result):
    res = result("E8")
    assert [row["GPUs"] for row in res.rows] == [1, 24, 132]
    # The tuning gain concentrates at scale.
    gains = [row["gain (points)"] for row in res.rows]
    assert gains[-1] == max(gains)
    assert gains[-1] > 15
    # At 1 GPU there is nothing to tune.
    assert abs(gains[0]) < 3
