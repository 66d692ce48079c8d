"""Deterministic discrete-event simulation kernel.

Provides the event loop (:class:`Simulator`), generator-based processes
(:class:`Process`), resource primitives (:class:`Resource`,
:class:`Store`), seeded RNG streams (:class:`RandomStreams`), and
structured tracing (:class:`Tracer`).
"""

from repro.sim.engine import (
    Event,
    Interrupt,
    PeriodicCall,
    SimulationError,
    Simulator,
)
from repro.sim.process import AllOf, AnyOf, Process
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "PeriodicCall",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "TraceRecord",
    "Tracer",
]
