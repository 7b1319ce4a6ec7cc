"""Deterministic discrete-event simulation kernel.

This package is a from-scratch discrete-event engine (no external
dependencies) in the style popularised by SimPy, specialised for the needs of
the Fast Messages reproduction:

* **integer nanosecond clock** — all hardware cost models produce integer
  nanosecond durations so runs are exactly reproducible across platforms;
* **deterministic ordering** — simultaneous events are ordered by
  ``(time, priority, sequence number)``, so a simulation is a pure function
  of its inputs;
* **generator processes** — hosts, NIC firmware loops, DMA engines and user
  programs are written as generators that ``yield`` events, or an ``int``
  number of ns to sleep;
* **resources and stores** — model exclusive devices (a host CPU, a DMA
  engine) and bounded queues (NIC packet slots, link slots) with blocking
  semantics, which is how link-level back-pressure is expressed.

Typical use::

    from repro.simkernel import Environment

    env = Environment()

    def producer(env, store):
        for i in range(3):
            yield 10                  # sleep 10 ns
            yield store.put(i)

    store = Store(env, capacity=1)
    env.process(producer(env, store))
    env.run()
"""

from repro.simkernel.errors import SimulationError
from repro.simkernel.events import (
    Event,
    Timeout,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
)
from repro.simkernel.process import Process
from repro.simkernel.env import Environment
from repro.simkernel.resources import Request, Resource
from repro.simkernel.store import Store
from repro.simkernel.units import MICROSECOND, MILLISECOND, NANOSECOND, SECOND, us, ms, ns_to_us, s

__all__ = [
    "Environment",
    "Event",
    "MICROSECOND",
    "MILLISECOND",
    "NANOSECOND",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "Process",
    "Request",
    "Resource",
    "SECOND",
    "SimulationError",
    "Store",
    "Timeout",
    "ms",
    "ns_to_us",
    "s",
    "us",
]
