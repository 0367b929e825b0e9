"""Discrete-event simulation engine.

A minimal, deterministic event-driven core used by the Hadoop execution
model: a clock + binary-heap event queue (:mod:`repro.simulator.engine`,
see docs/KERNEL.md) and the resource primitive every result in the paper
hinges on — processor-sharing bandwidth
(:mod:`repro.simulator.resources`).
"""

from repro.simulator.engine import Simulation
from repro.simulator.resources import FairShareResource

__all__ = ["Simulation", "FairShareResource"]
