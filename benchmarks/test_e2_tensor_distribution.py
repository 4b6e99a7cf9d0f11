"""E2 — DLv3+ gradient tensor size distribution (fusion motivation)."""


def test_e2_tensor_distribution(result):
    res = result("E2")
    assert res.measured["tensor_count"] == 440
    # Long tail: the median tensor is tiny...
    assert res.measured["median_bytes"] < 16_000
    # ...while a handful of MB-scale tensors carry almost all bytes.
    assert float(res.rows[-1]["share of bytes"].rstrip("%")) > 90
    assert res.measured["total_MiB"] > 150  # ~41M params in fp32
