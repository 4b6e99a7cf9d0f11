"""Zero-perturbation gate: tracing on vs off is bit-identical.

The recorder never schedules events and only reads ``env.now`` at
instants the instrumented code already reaches, so the simulated
timings — training statistics, the Horovod timeline, the kernel's event
count, the final clock — must be byte-for-byte identical with tracing
enabled at either level.
"""

import math
import pickle

import pytest

from repro.core import (
    measure_training,
    paper_default_config,
    paper_tuned_config,
)


@pytest.mark.parametrize("level", ["spans", "links"])
@pytest.mark.parametrize("config_fn,gpus", [
    (paper_default_config, 6),
    (paper_tuned_config, 12),
])
def test_training_timings_bit_identical(config_fn, gpus, level):
    kwargs = dict(iterations=2, jitter_std=0.03, seed=0)
    off = measure_training(gpus, config_fn(), **kwargs)
    on = measure_training(gpus, config_fn(), trace=level, **kwargs)
    assert pickle.dumps(on.stats) == pickle.dumps(off.stats)
    assert on.timeline.events == off.timeline.events
    assert on.runtime_stats == off.runtime_stats
    assert on.link_utilization == off.link_utilization
    assert on.trace is not None and off.trace is None


def _osu(tracer=None):
    from repro.cluster import Fabric, build_summit
    from repro.mpi import MVAPICH2_GDR
    from repro.mpi.communicator import Comm
    from repro.mpi.osu import osu_allreduce
    from repro.sim import Environment

    gpus = 12
    env = Environment()
    topo = build_summit(env, nodes=math.ceil(gpus / 6))
    comm = Comm(Fabric(topo), topo.gpus()[:gpus], MVAPICH2_GDR)
    if tracer is not None:
        tracer.attach(env=env, comm=comm, fabric=comm.fabric)
    result = osu_allreduce(comm, 1 << 20, iterations=3)
    return env, result


def test_osu_kernel_fingerprint_bit_identical():
    """Same event count, same clock, same latency — tracing is invisible."""
    from repro.trace import SpanRecorder

    env_off, res_off = _osu()
    tracer = SpanRecorder(level="links")
    env_on, res_on = _osu(tracer)
    assert res_on == res_off
    assert env_on.now == env_off.now
    assert env_on.events_scheduled == env_off.events_scheduled
    # ... while the traced run actually recorded the collective.
    assert tracer.by_cat("COLLECTIVE") and tracer.by_cat("TRANSFER")
