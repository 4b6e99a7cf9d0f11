"""Real data-parallel training through the simulated Horovod runtime.

This is the mechanistic half of the paper's accuracy claim: the
distributed training path must compute *exactly* the gradients
synchronous SGD specifies.  Here, ``world`` replicas of
:class:`~repro.npnn.model.MiniDeepLab` each process their shard of every
global batch, their real numpy gradients travel through the actual
:class:`~repro.horovod.runtime.HorovodRuntime` (negotiation, fusion
packing, ring allreduce over the simulated Summit fabric), and each
replica applies the averaged result.

Two properties are load-bearing (and tested):

* **replica consistency** — the ring allreduce is bitwise identical
  across ranks, so replicas that start identical stay identical forever;
* **serial equivalence** — the allreduced gradient equals the mean of
  the per-shard gradients computed sequentially (float64: to ~1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster import Fabric, build_summit
from repro.data.voc import VOCMini
from repro.horovod.config import HorovodConfig
from repro.horovod.runtime import HorovodRuntime
from repro.mpi.communicator import Comm
from repro.mpi.libraries import MVAPICH2_GDR
from repro.npnn.loss import softmax_cross_entropy
from repro.npnn.metrics import confusion_matrix, mean_iou
from repro.npnn.model import MiniDeepLab
from repro.npnn.optim import SGD
from repro.sim import Environment
from repro.sim.rng import stable_seed
from repro.sim.units import MiB

__all__ = ["DataParallelTrainer", "ParallelConfig", "StepResult"]


@dataclass(frozen=True)
class ParallelConfig:
    """Hyperparameters of one data-parallel npnn run."""

    world: int = 4
    per_replica_batch: int = 4
    lr: float = 0.05
    momentum: float = 0.9
    width: int = 8
    fusion_threshold_bytes: int = 1 * MiB
    #: Collective used for gradient averaging.  ``"recursive_doubling"``
    #: reduces every element in the same pairwise order regardless of
    #: fusion layout, so fused and unfused runs are bit-identical.
    allreduce_algorithm: str = "ring"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.world < 1:
            raise ValueError("world must be >= 1")
        if self.per_replica_batch < 1:
            raise ValueError("per_replica_batch must be >= 1")

    @property
    def global_batch(self) -> int:
        """World × per-replica batch."""
        return self.world * self.per_replica_batch


@dataclass
class StepResult:
    """One optimizer step's observables."""

    step: int
    mean_loss: float
    grad_norm: float
    allreduce_sim_seconds: float


class DataParallelTrainer:
    """Synchronous data-parallel trainer over real numpy replicas."""

    def __init__(self, dataset: VOCMini, config: ParallelConfig) -> None:
        self.dataset = dataset
        self.config = config
        self.replicas = [
            MiniDeepLab(
                num_classes=dataset.num_classes,
                width=config.width,
                seed=config.seed,
            )
            for _ in range(config.world)
        ]
        self.optimizers = [
            SGD(lr=config.lr, momentum=config.momentum)
            for _ in range(config.world)
        ]
        self._batch_rng = np.random.default_rng(
            stable_seed("dp-batches", config.seed)
        )
        self.history: list[StepResult] = []

    # -- gradient machinery -----------------------------------------------------
    def local_gradients(self, rank: int, indices: list[int]):
        """(loss, grads dict) for one replica on its shard."""
        images, masks = self.dataset.batch(indices)
        x = np.ascontiguousarray(images.transpose(0, 3, 1, 2)).astype(np.float64)
        model = self.replicas[rank]
        model.zero_grads()
        logits = model.forward(x)
        loss, dlogits = softmax_cross_entropy(logits, masks)
        model.backward(dlogits)
        grads = {name: g.copy() for name, _, g in model.named_params()}
        return loss, grads

    def allreduce_gradients(self, per_rank: list[dict]) -> tuple[list[dict], float]:
        """Average gradient dicts through the Horovod runtime.

        Returns per-rank averaged dicts plus the simulated seconds the
        exchange took on the modeled fabric.  With ``world == 1`` the
        input is returned unchanged.
        """
        world = len(per_rank)
        if world == 1:
            return per_rank, 0.0
        env = Environment()
        topo = build_summit(env, nodes=max(1, math.ceil(world / 6)))
        comm = Comm(Fabric(topo), topo.gpus()[:world], MVAPICH2_GDR)
        cfg = HorovodConfig.default().with_(
            fusion_threshold_bytes=self.config.fusion_threshold_bytes,
            cycle_time_s=1e-4,
            allreduce_algorithm=self.config.allreduce_algorithm,
        )
        runtime = HorovodRuntime(comm, cfg)
        results: list[dict] = [dict() for _ in range(world)]

        def worker(env, rank):
            for name, grad in per_rank[rank].items():
                runtime.submit(rank, name, grad)
            results[rank] = yield runtime.synchronize(rank)

        procs = [env.process(worker(env, r)) for r in range(world)]
        env.run(until=env.all_of(procs))
        runtime.shutdown()
        env.run()
        self.last_runtime_stats = runtime.stats
        return results, env.now

    # -- training loop -------------------------------------------------------------
    def global_batch_indices(self, n_samples: int) -> list[list[int]]:
        """Draw one global batch and shard it contiguously by rank."""
        picks = self._batch_rng.integers(
            0, n_samples, size=self.config.global_batch
        )
        b = self.config.per_replica_batch
        return [
            [int(i) for i in picks[r * b:(r + 1) * b]]
            for r in range(self.config.world)
        ]

    def step(self, n_samples: int = 256) -> StepResult:
        """One synchronous step over a fresh global batch."""
        shards = self.global_batch_indices(n_samples)
        losses, grads = [], []
        for rank in range(self.config.world):
            loss, g = self.local_gradients(rank, shards[rank])
            losses.append(loss)
            grads.append(g)
        averaged, sim_seconds = self.allreduce_gradients(grads)
        for rank in range(self.config.world):
            self.optimizers[rank].step(
                self.replicas[rank], grads_override=averaged[rank]
            )
        norm = float(
            np.sqrt(sum((g ** 2).sum() for g in averaged[0].values()))
        )
        result = StepResult(
            step=len(self.history),
            mean_loss=float(np.mean(losses)),
            grad_norm=norm,
            allreduce_sim_seconds=sim_seconds,
        )
        self.history.append(result)
        return result

    def train(self, steps: int, n_samples: int = 256) -> list[StepResult]:
        """Run ``steps`` synchronous steps; returns the step history."""
        for _ in range(steps):
            self.step(n_samples=n_samples)
        return self.history

    # -- verification helpers ---------------------------------------------------
    def replicas_in_sync(self) -> bool:
        """True when all replicas hold bitwise-identical parameters."""
        ref = {name: p for name, p, _ in self.replicas[0].named_params()}
        for replica in self.replicas[1:]:
            for name, p, _ in replica.named_params():
                if not np.array_equal(ref[name], p):
                    return False
        return True

    def evaluate(self, indices: list[int]) -> float:
        """mIOU of replica 0 over the given sample indices."""
        images, masks = self.dataset.batch(indices)
        x = np.ascontiguousarray(images.transpose(0, 3, 1, 2)).astype(np.float64)
        pred = self.replicas[0].predict(x)
        return mean_iou(
            confusion_matrix(pred, masks, self.dataset.num_classes)
        )
