"""Discrete-event simulation kernel used by every subsystem in repro.

See :mod:`repro.sim.kernel` for the event loop, process and event types,
:mod:`repro.sim.resources` for locks and conditions, and
:mod:`repro.sim.cpu` for host CPU cost accounting.
"""

from .kernel import (
    Environment,
    Event,
    Interrupt,
    Kernel,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Condition, Resource
from .cpu import CostModel, CpuMeter

__all__ = [
    "Environment",
    "Kernel",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Condition",
    "Resource",
    "CostModel",
    "CpuMeter",
]
