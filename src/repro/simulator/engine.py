"""Deterministic discrete-event simulation loop.

The engine is intentionally tiny: a binary heap (:mod:`heapq`) of
``(time, seq, callback)`` events and a clock.  Everything else (slots,
bandwidth sharing, tasks, jobs) is built on top as ordinary Python
objects that schedule callbacks.

Determinism: events at equal times fire in scheduling order (the ``seq``
tie-breaker), so two runs with the same inputs produce byte-identical
results.  That ``(time, seq)`` total order is pinned by
``tests/test_engine.py`` and is what lets the calibration tests pin
exact cross points (docs/KERNEL.md).
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.tracer import Tracer


class _Event:
    """A scheduled callback.  ``cancelled`` events stay in the queue but
    are skipped when popped — O(1) cancellation without queue surgery."""

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[[], Any]) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def cancel(self) -> None:
        """Mark the event so :meth:`Simulation.run` skips it."""
        self.cancelled = True


class Simulation:
    """Event loop with a monotonically advancing clock.

    Parameters
    ----------
    max_events:
        Safety valve against runaway models.  The full FB-2009 replay is a
        few hundred thousand task events, so the default leaves ample head
        room while still catching accidental infinite event chains.
    """

    def __init__(self, max_events: int = 50_000_000) -> None:
        self.now: float = 0.0
        self._heap: List[_Event] = []
        self._seq = 0
        self._processed = 0
        self._max_events = max_events
        self._running = False
        #: Attached telemetry observers (see :meth:`attach_telemetry`).
        #: ``None`` means disabled; instrumented code must treat that as
        #: the fast path (a single attribute check, no other work).
        self.tracer: Optional["Tracer"] = None
        self.metrics: Optional["MetricsRegistry"] = None

    # -- telemetry ------------------------------------------------------

    def attach_telemetry(
        self,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        """Attach observers that record what the simulation does.

        The tracer is bound to this simulation's clock.  Observers never
        schedule events, so attaching telemetry cannot change simulated
        behaviour — runs stay byte-identical (see tests/test_telemetry.py).
        Passing ``None`` for either slot leaves it detached.
        """
        if tracer is not None:
            tracer.bind(self)
            self.tracer = tracer
        if metrics is not None:
            self.metrics = metrics

    # -- scheduling -----------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], Any]) -> _Event:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        return self.schedule_at(self.now + delay, fn)

    def schedule_at(self, time: float, fn: Callable[[], Any]) -> _Event:
        """Schedule ``fn`` at an absolute simulation time."""
        if not time >= self.now:  # also refuses NaN
            raise SimulationError(
                f"cannot schedule into the past (t={time!r} < now={self.now!r})"
            )
        event = _Event(time, self._seq, fn)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def call_soon(self, fn: Callable[[], Any]) -> _Event:
        """Schedule ``fn`` at the current time (after pending same-time events)."""
        return self.schedule_at(self.now, fn)

    # -- execution ------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue is empty (or ``until`` is reached).

        Returns the final clock value.  Calling ``run`` again after adding
        more events resumes from the current clock.  The clock never moves
        backward: an ``until`` at or before ``now`` processes nothing and
        returns ``now``.  A non-finite ``until`` is a
        :class:`~repro.errors.SimulationError`.
        """
        if self._running:
            raise SimulationError("Simulation.run is not reentrant")
        if until is not None and not math.isfinite(until):
            raise SimulationError(f"run(until=) must be finite, got {until!r}")
        limit = math.inf if until is None else until
        self._running = True
        heap = self._heap
        try:
            while heap:
                event = heap[0]
                if event.time > limit:
                    break
                heapq.heappop(heap)
                if event.cancelled:
                    continue
                self._processed += 1
                if self._processed > self._max_events:
                    raise SimulationError(
                        f"exceeded max_events={self._max_events}; "
                        "likely a runaway event chain"
                    )
                self.now = event.time
                event.fn()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
        return self.now

    def step(self) -> bool:
        """Process the single next pending event.

        Returns True when an event ran, False when the queue is idle
        (cancelled placeholders are discarded without counting as work).
        This is the incremental-admission primitive: a long-running
        service interleaves ``step``/``run(until=...)`` with new
        ``schedule_at`` calls, and the (time, seq) event order guarantees
        the interleaving cannot reorder events relative to scheduling
        everything up front.
        """
        if self._running:
            raise SimulationError("Simulation.step is not reentrant")
        self._running = True
        heap = self._heap
        try:
            while heap:
                event = heapq.heappop(heap)
                if event.cancelled:
                    continue
                self._processed += 1
                if self._processed > self._max_events:
                    raise SimulationError(
                        f"exceeded max_events={self._max_events}; "
                        "likely a runaway event chain"
                    )
                self.now = event.time
                event.fn()
                return True
            return False
        finally:
            self._running = False

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (skipped cancellations excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Events still queued, including cancelled placeholders."""
        return len(self._heap)
