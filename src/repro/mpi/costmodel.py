"""Analytic α–β cost model for collectives.

Closed-form predictions of allreduce time under the classic Hockney model
(per-message latency α, per-byte cost β), used for **cross-validation**:
tests assert the discrete-event results track these formulas on uniform
topologies (where the formulas are exact up to protocol overheads),
guarding against schedule bugs in the simulated collectives.

Formulas (p ranks, n bytes):

========================  ====================================================
ring                      ``2(p-1)·α + 2·(p-1)/p·n·β``
recursive doubling        ``⌈log2 p⌉·(α + n·β)`` (+ fold round if p not 2^k)
Rabenseifner              ``2·log2(p)·α + 2·(p-1)/p·n·β`` (power of two)
tree (reduce+bcast)       ``2·⌈log2 p⌉·(α + n·β)``
========================  ====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.mpi.communicator import Comm
from repro.mpi.libraries import MPILibrary

__all__ = ["AlphaBeta", "allreduce_time", "alpha_beta_for"]


@dataclass(frozen=True)
class AlphaBeta:
    """Hockney parameters: α seconds per message, β seconds per byte."""

    alpha: float
    beta: float

    def message(self, nbytes: float) -> float:
        """Time for one point-to-point message of ``nbytes``."""
        return self.alpha + nbytes * self.beta


def alpha_beta_for(comm: Comm, inter_node: bool = True,
                   rendezvous: bool = True) -> AlphaBeta:
    """Derive α–β parameters from a communicator's fabric and library.

    Uses the route between the first pair of inter-node (or intra-node)
    ranks as representative; α includes the library software latency and,
    optionally, the rendezvous round trip.
    """
    topo = comm.fabric.topology
    lib: MPILibrary = comm.library
    pair = None
    for i in range(comm.size):
        for j in range(comm.size):
            if i != j and topo.same_node(comm.devices[i], comm.devices[j]) != inter_node:
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        raise ValueError(
            f"communicator has no {'inter' if inter_node else 'intra'}-node pair"
        )
    src, dst = comm.devices[pair[0]], comm.devices[pair[1]]
    same = topo.same_node(src, dst)
    alpha = topo.route_latency(src, dst) + lib.sw_latency(same)
    if rendezvous:
        alpha += lib.rendezvous_rtt_s
    beta = 1.0 / (topo.route_bandwidth(src, dst) * lib.bw_derate(same))
    return AlphaBeta(alpha, beta)


def allreduce_time(algorithm: str, p: int, nbytes: int, ab: AlphaBeta) -> float:
    """Predicted allreduce time for ``algorithm`` on uniform parameters.

    For ``p == 1`` every algorithm is free.  Non-power-of-two sizes add the
    fold exchange where the implementation performs one.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 1:
        return 0.0
    log2p = math.ceil(math.log2(p))
    pof2 = 1 << (p.bit_length() - 1)
    fold = 0.0 if p == pof2 else 2 * ab.message(nbytes)
    if algorithm == "ring":
        return 2 * (p - 1) * ab.alpha + 2 * ((p - 1) / p) * nbytes * ab.beta
    if algorithm == "recursive_doubling":
        rounds = int(math.log2(pof2))
        return fold + rounds * ab.message(nbytes)
    if algorithm == "rabenseifner":
        rounds = int(math.log2(pof2))
        return fold + 2 * rounds * ab.alpha + 2 * ((pof2 - 1) / pof2) * nbytes * ab.beta
    if algorithm == "tree":
        return 2 * log2p * ab.message(nbytes)
    raise KeyError(f"no analytic model for algorithm {algorithm!r}")
