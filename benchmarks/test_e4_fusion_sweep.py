"""E4 — tensor-fusion threshold sweep at 132 GPUs."""


def test_e4_fusion_sweep(result):
    res = result("E4")
    # Exposed-communication regime (Spectrum): small fusion is a
    # first-order throughput penalty (many α-heavy collectives).
    assert res.measured["small_fusion_penalty"] > 1.10
    assert res.measured["worst_spectrum"] == "1MiB"
    # Fewer fused ops as the threshold grows.
    ops = [row["Spectrum ops/iter"] for row in res.rows]
    assert ops == sorted(ops, reverse=True)
    # Hidden regime (GDR): throughput is flat (within 1%)...
    gdr = [row["GDR img/s"] for row in res.rows]
    assert max(gdr) / min(gdr) < 1.01
    # ...but serialized allreduce time still improves with fusion.
    assert res.rows[0]["GDR allreduce ms/iter"] >= res.rows[-1]["GDR allreduce ms/iter"]
