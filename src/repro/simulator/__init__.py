"""Discrete-event simulation engine.

A minimal, deterministic event-driven core used by the Hadoop execution
model: a clock + pluggable event queue (:mod:`repro.simulator.engine`,
with heap and calendar-queue kernels — see docs/KERNEL.md) and the
resource primitive every result in the paper hinges on — processor-sharing
bandwidth (:mod:`repro.simulator.resources`).
"""

from repro.simulator.calqueue import CalendarQueue
from repro.simulator.engine import KERNEL_ENV, KERNELS, Simulation, resolve_kernel
from repro.simulator.resources import FairShareResource

__all__ = [
    "Simulation",
    "FairShareResource",
    "CalendarQueue",
    "KERNELS",
    "KERNEL_ENV",
    "resolve_kernel",
]
