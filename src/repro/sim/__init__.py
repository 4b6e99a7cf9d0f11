"""Discrete-event simulation engine.

This package implements a small, dependency-free discrete-event simulation
(DES) kernel in the style of SimPy: simulation *processes* are Python
generator functions that ``yield`` :class:`~repro.sim.engine.Event` objects
to wait on, and an :class:`~repro.sim.engine.Environment` advances virtual
time by popping events off a priority queue.

The engine is the substrate for every timed component in the reproduction:
the cluster fabric (:mod:`repro.cluster`), the simulated MPI library
(:mod:`repro.mpi`), the Horovod control plane (:mod:`repro.horovod`) and the
distributed trainer (:mod:`repro.train`) are all written as processes over
this kernel.

Design notes
------------
* Time is a ``float`` in **seconds**; helpers in :mod:`repro.sim.units`
  convert from microseconds/milliseconds and from bytes-per-second
  bandwidths.
* Determinism: two runs with the same seeds produce identical event orders.
  Ties in time are broken by (priority, insertion id), never by hash order.
* Errors raised inside a process propagate to whoever waits on it, exactly
  like SimPy; an unhandled failure aborts :meth:`Environment.run` with the
  original traceback.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
