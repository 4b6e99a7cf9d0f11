"""E3 — OSU-style allreduce latency curves: Spectrum MPI vs MVAPICH2-GDR."""


def test_e3_osu_allreduce(result):
    res = result("E3")
    # MVAPICH2-GDR must win at every message size (published OSU shape).
    assert res.measured["gdr_faster_at_all_sizes"] == "yes"
    # Small messages: the GPUDirect latency advantage (>2x at 24 ranks).
    assert res.measured["small_msg_speedup"] > 2
    # Large messages: algorithm + bandwidth advantage compounds (>2x).
    assert res.measured["large_msg_speedup"] > 2
    # Latency grows with size overall; local dips at algorithm-selection
    # switch points are expected (they appear in real OSU curves too).
    for column in ("SpectrumMPI (us)", "MVAPICH2-GDR (us)"):
        lat = [row[column] for row in res.rows]
        assert lat[-1] > 10 * lat[0]
        assert lat[-1] == max(lat)
