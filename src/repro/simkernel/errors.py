"""Exception types used by the simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded/failed twice — always a programming error."""
