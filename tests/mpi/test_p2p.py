"""Point-to-point semantics: matching, protocols, ordering."""

import numpy as np
import pytest

from repro.cluster import Fabric, build_summit
from repro.mpi import MVAPICH2_GDR, SPECTRUM_MPI, Comm, VirtualBuffer
from repro.sim import Environment

from tests.mpi.conftest import make_comm


def test_send_recv_payload_roundtrip(comm4):
    env, comm = comm4
    data = np.arange(5.0)

    def receiver(env):
        payload = yield comm.recv(1, src=0, tag=7)
        return payload

    def sender(env):
        yield comm.isend(0, 1, data, tag=7)

    r = env.process(receiver(env))
    env.process(sender(env))
    env.run()
    np.testing.assert_array_equal(r.value, data)


def test_recv_before_send_and_after(comm4):
    env, comm = comm4
    results = []

    def receiver(env):
        early = yield comm.recv(1, src=0, tag=1)  # posted before send
        yield env.timeout(1.0)
        late = yield comm.recv(1, src=0, tag=2)  # message already arrived
        results.extend([early, late])

    def sender(env):
        yield comm.isend(0, 1, VirtualBuffer(4), tag=1)
        yield comm.isend(0, 1, VirtualBuffer(8), tag=2)

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert [p.nbytes for p in results] == [4, 8]


def test_tag_matching_not_fifo_across_tags(comm4):
    env, comm = comm4

    def sender(env):
        yield comm.isend(0, 1, VirtualBuffer(4), tag=10)
        yield comm.isend(0, 1, VirtualBuffer(8), tag=20)

    def receiver(env):
        second = yield comm.recv(1, src=0, tag=20)
        first = yield comm.recv(1, src=0, tag=10)
        return (first.nbytes, second.nbytes)

    env.process(sender(env))
    r = env.process(receiver(env))
    env.run()
    assert r.value == (4, 8)


def test_source_matching(comm4):
    env, comm = comm4

    def sender(env, src, size):
        yield comm.isend(src, 3, VirtualBuffer(size), tag=0)

    def receiver(env):
        from_2 = yield comm.recv(3, src=2, tag=0)
        from_1 = yield comm.recv(3, src=1, tag=0)
        return (from_1.nbytes, from_2.nbytes)

    env.process(sender(env, 1, 4))
    env.process(sender(env, 2, 8))
    r = env.process(receiver(env))
    env.run()
    assert r.value == (4, 8)


def test_self_send(comm4):
    env, comm = comm4

    def proc(env):
        yield comm.isend(2, 2, VirtualBuffer(4), tag=5)
        got = yield comm.recv(2, src=2, tag=5)
        return got.nbytes

    p = env.process(proc(env))
    env.run()
    assert p.value == 4
    assert env.now == 0.0


def test_rank_bounds_checked(comm4):
    env, comm = comm4
    with pytest.raises(ValueError):
        comm.isend(0, 99, VirtualBuffer(4), tag=0)
    with pytest.raises(ValueError):
        comm.recv(-1, src=0, tag=0)


def test_eager_send_completes_without_receiver():
    """Eager (small) messages deliver even when no recv is posted."""
    env, comm = make_comm(2)
    small = VirtualBuffer(4)  # far below eager threshold
    send = comm.isend(0, 1, small, tag=0)
    env.run()
    assert send.processed and send.ok


@pytest.mark.parametrize("dst", [1, 0], ids=["eager", "self_send"])
def test_delivery_into_posted_recv_consumes_the_posted_count(dst):
    """A message landing in a receive posted before it arrived leaves
    no posted count behind, with or without a rendezvous handshake."""
    env, comm = make_comm(2)
    recv = comm.recv(dst, src=0, tag=3)  # posted first
    assert comm._mailboxes[dst].posted == {(0, 3): 1}
    comm.isend(0, dst, VirtualBuffer(4), tag=3)  # far below eager
    env.run()
    assert recv.value.nbytes == 4
    assert comm._mailboxes[dst].posted == {}


def test_rendezvous_handshake_consumes_the_posted_count():
    env, comm = make_comm(2)
    recv = comm.recv(1, src=0, tag=3)
    comm.isend(0, 1, VirtualBuffer(10 * (1 << 20)), tag=3)
    env.run()
    assert recv.value.nbytes == 10 * (1 << 20)
    assert comm._mailboxes[1].posted == {}


def test_rendezvous_send_blocks_until_recv_posted():
    """Large messages wait for the matching receive (rendezvous)."""
    env, comm = make_comm(2)
    big = VirtualBuffer(10 * (1 << 20))  # 10 MiB >> eager threshold
    send = comm.isend(0, 1, big, tag=0)
    env.run(until=1.0)
    assert not send.triggered  # still waiting on the receiver

    def receiver(env):
        payload = yield comm.recv(1, src=0, tag=0)
        return payload.nbytes

    r = env.process(receiver(env))
    env.run()
    assert send.processed and r.value == big.nbytes


def test_rendezvous_adds_rtt_latency():
    """With recv pre-posted, rendezvous still costs the RTS/CTS RTT."""
    env, comm = make_comm(2, library=MVAPICH2_GDR)
    nbytes = 10 * (1 << 20)
    src, dst = comm.devices[0], comm.devices[1]
    lib = comm.library
    same = comm.fabric.topology.same_node(src, dst)
    base = comm.fabric.transfer_seconds(
        src, dst, nbytes,
        extra_latency=lib.sw_latency(same),
        bandwidth_derate=lib.bw_derate(same),
    )

    def receiver(env):
        yield comm.recv(1, src=0, tag=0)

    env.process(receiver(env))
    comm.isend(0, 1, VirtualBuffer(nbytes), tag=0)
    env.run()
    assert env.now == pytest.approx(base + lib.rendezvous_rtt_s)


def test_spectrum_slower_than_mvapich_inter_node():
    """Host staging (Spectrum) must cost more than GDR for GPU buffers."""
    times = {}
    for lib in (SPECTRUM_MPI, MVAPICH2_GDR):
        env, comm = make_comm(12, library=lib)  # 2 nodes

        def receiver(env, comm=comm):
            yield comm.recv(6, src=0, tag=0)  # rank 6 = first GPU of node 1

        env.process(receiver(env))
        comm.isend(0, 6, VirtualBuffer(4 * (1 << 20)), tag=0)
        env.run()
        times[lib.name] = env.now
    assert times["SpectrumMPI"] > times["MVAPICH2-GDR"]


def test_messages_sent_counter(comm4):
    env, comm = comm4
    comm.isend(0, 1, VirtualBuffer(4), tag=0)
    comm.isend(1, 2, VirtualBuffer(4), tag=0)
    env.run()
    assert comm.messages_sent == 2


def test_duplicate_devices_rejected():
    env = Environment()
    topo = build_summit(env, nodes=1)
    fabric = Fabric(topo)
    g = topo.gpus()[0]
    with pytest.raises(ValueError):
        Comm(fabric, [g, g], MVAPICH2_GDR)


def test_empty_comm_rejected():
    env = Environment()
    fabric = Fabric(build_summit(env, nodes=1))
    with pytest.raises(ValueError):
        Comm(fabric, [], MVAPICH2_GDR)
