"""Resource primitive: processor-sharing bandwidth.

**Shared bandwidth** (a local disk shared by co-resident tasks, the OFS
storage servers shared by the whole cluster, a RAMdisk) is why up-HDFS
collapses at large inputs and why shuffle is always faster on scale-up.
(Task slots, whose waves are why scale-out wins for large inputs, are
the jobtracker's queues: :mod:`repro.mapreduce.queues`.)

:class:`FairShareResource` implements max–min fair sharing with per-flow
rate caps via progressive filling, re-evaluated on every flow arrival or
departure.  That is the standard fluid approximation for concurrent
sequential I/O streams over one device/array.

The allocation is solved once per state change and cached: every change
to the flow set or the capacity clears the cache, so the ``_advance``
that follows an unchanged ``_reschedule`` reuses its rates.  When every
flow has the same cap (the common case) the allocation is one rate, and
the sweeps use it directly: ``_advance`` subtracts the one product
``rate * dt`` from every flow, and ``_reschedule`` takes
``min(remaining) / rate``.  Both are bit-identical to the per-flow
forms: the product is the same for every flow, and division by a
positive float is monotone under round-to-nearest, so
``min(r_i / rate) == min(r_i) / rate`` exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from repro.errors import SimulationError
from repro.simulator.engine import Simulation

#: Residual bytes below which a flow counts as complete (float dust guard).
#: Also applied relatively (see :attr:`Flow.done_below`): one part in 1e9
#: of the flow's size, so multi-GB flows complete despite accumulated
#: rounding.
_COMPLETION_EPSILON = 1e-6
_RELATIVE_EPSILON = 1e-9


class Flow:
    """One I/O stream inside a :class:`FairShareResource`."""

    __slots__ = (
        "total_bytes", "remaining", "done_below", "cap", "on_complete",
        "started_at", "finished_at",
    )

    def __init__(
        self,
        total_bytes: float,
        cap: Optional[float],
        on_complete: Callable[[], None],
        started_at: float,
    ) -> None:
        self.total_bytes = total_bytes
        self.remaining = total_bytes
        #: The flow is complete once ``remaining`` is at most this.
        self.done_below = max(_COMPLETION_EPSILON, _RELATIVE_EPSILON * total_bytes)
        self.cap = cap
        self.on_complete = on_complete
        self.started_at = started_at
        self.finished_at: Optional[float] = None


class FairShareResource:
    """Processor-sharing bandwidth with per-flow caps (max–min fair).

    Parameters
    ----------
    capacity:
        Aggregate bytes/second the resource can move, or ``None`` for
        unlimited aggregate (each flow then runs at its own cap).
    name:
        For error messages and debugging.

    Every flow arrival/departure re-solves the progressive-filling
    allocation and reschedules the next completion event, so rates are
    exact piecewise-constant fluid dynamics, not per-flow snapshots.
    """

    def __init__(
        self,
        sim: Simulation,
        capacity: Optional[float],
        name: str = "bandwidth",
        capacity_fn: Optional[Callable[[int], float]] = None,
    ) -> None:
        """``capacity_fn(n_active_flows)`` optionally makes the aggregate
        capacity depend on concurrency — how spinning disks lose sequential
        bandwidth to seeks as streams multiply.  It overrides ``capacity``
        whenever at least one flow is active."""
        _check_capacity(name, capacity)
        self.sim = sim
        self.capacity = capacity
        self.capacity_fn = capacity_fn
        self.name = name
        self._flows: list[Flow] = []
        #: Multiset of the active flows' caps: ``cap -> count``.
        self._caps: dict[Optional[float], int] = {}
        #: Cached allocation: ``None`` when stale, else one rate shared by
        #: every flow (uniform caps) or a list of per-flow rates.
        self._rates: Union[None, float, list[float]] = None
        self._last_update = sim.now
        self._completion_event = None
        self.bytes_completed = 0.0

    # -- public API -----------------------------------------------------

    def start_flow(
        self,
        num_bytes: float,
        on_complete: Callable[[], None],
        cap: Optional[float] = None,
    ) -> Flow:
        """Begin transferring ``num_bytes``; ``on_complete()`` fires when done.

        ``cap`` bounds this flow's rate (models the per-stream protocol
        ceiling of OFS or a task's NIC share).  If both ``cap`` and the
        aggregate capacity are ``None`` the flow would never bottleneck,
        which is a configuration bug — we reject it.
        """
        if not math.isfinite(num_bytes):
            raise SimulationError(
                f"resource {self.name!r}: flow size must be finite, got {num_bytes!r}"
            )
        if num_bytes < 0:
            raise SimulationError(f"negative flow size {num_bytes!r}")
        if cap is not None and not cap > 0:  # also refuses NaN
            raise SimulationError(
                f"resource {self.name!r}: flow cap must be positive, got {cap!r}"
            )
        if cap is None and self.capacity is None and self.capacity_fn is None:
            raise SimulationError(
                f"resource {self.name!r} is uncapacitated and flow has no cap"
            )
        self._advance()
        flow = Flow(num_bytes, cap, on_complete, self.sim.now)
        if num_bytes <= _COMPLETION_EPSILON:
            # Zero-byte transfers complete immediately but asynchronously,
            # preserving callback ordering guarantees.
            flow.remaining = 0.0
            flow.finished_at = self.sim.now
            self.sim.call_soon(on_complete)
            return flow
        self._flows.append(flow)
        self._caps[cap] = self._caps.get(cap, 0) + 1
        self._rates = None
        self._reschedule()
        return flow

    def set_capacity(self, capacity: Optional[float]) -> None:
        """Change the aggregate capacity mid-simulation (fault injection:
        a storage server dying or rejoining).  In-flight flows keep their
        progress; rates are re-solved from the current instant, so the
        change is exact piecewise-constant fluid dynamics like any other
        arrival/departure."""
        _check_capacity(self.name, capacity)
        self._advance()
        self.capacity = capacity
        self._rates = None
        self._reschedule()

    def cancel_flow(self, flow: Flow) -> None:
        """Abort an unfinished flow; its completion callback will not fire.

        Completion wins: cancelling a flow that already finished — also
        one finishing in the advance whose callbacks are running now —
        is a no-op, and its callback still fires."""
        self._advance()
        if flow.finished_at is None and flow in self._flows:
            self._remove(flow)
            self._reschedule()

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def current_rates(self) -> list[float]:
        """Instantaneous per-flow rates (bytes/s), for tests and metrics."""
        if not self._flows:
            return []
        rates = self._allocation()
        if isinstance(rates, list):
            return list(rates)
        return [rates] * len(self._flows)

    # -- fluid dynamics ---------------------------------------------------

    def _remove(self, flow: Flow) -> None:
        self._flows.remove(flow)
        caps = self._caps
        if caps[flow.cap] == 1:
            del caps[flow.cap]
        else:
            caps[flow.cap] -= 1
        self._rates = None

    def _allocation(self) -> Union[float, list[float]]:
        """The cached allocation, solved if stale (flows must be active)."""
        rates = self._rates
        if rates is None:
            rates = self._rates = self._solve()
        return rates

    def _solve(self) -> Union[float, list[float]]:
        """Progressive-filling max–min allocation for the active flows:
        one rate when every flow has the same cap, else per-flow rates."""
        flows = self._flows
        n = len(flows)
        if self.capacity_fn is not None:
            capacity = self.capacity_fn(n)
            if capacity <= 0:
                raise SimulationError(
                    f"resource {self.name!r}: capacity_fn({n}) must be positive"
                )
        else:
            capacity = self.capacity
        # Fast path (the overwhelmingly common case in this model): all
        # flows share one cap value — either uncapped disk streams or
        # same-ceiling remote-FS streams.  Max-min then degenerates to an
        # equal split, clipped by the cap.
        if len(self._caps) == 1:
            cap = flows[0].cap
            if capacity is None:
                return cap  # type: ignore[return-value]  # non-None by construction
            share = capacity / n
            return share if cap is None else min(cap, share)
        if capacity is None:
            return [f.cap for f in flows]  # type: ignore[misc]  # all caps non-None
        rates = [0.0] * n
        # General progressive filling: sort indices by cap (uncapped flows
        # last); each flow takes min(cap, equal share of what's left).
        keys = [math.inf if f.cap is None else f.cap for f in flows]
        order = sorted(range(n), key=keys.__getitem__)
        remaining_capacity = capacity
        remaining_flows = n
        for idx in order:
            share = remaining_capacity / remaining_flows
            cap = flows[idx].cap
            rate = share if cap is None else min(cap, share)
            rates[idx] = rate
            remaining_capacity -= rate
            remaining_flows -= 1
        return rates

    def _advance(self) -> None:
        """Progress all flows from the last update instant to sim.now."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        flows = self._flows
        if dt <= 0 or not flows:
            return
        rates = self._allocation()
        finished: list[Flow] = []
        if isinstance(rates, list):
            for flow, rate in zip(flows, rates):
                flow.remaining -= rate * dt
                if flow.remaining <= flow.done_below:
                    finished.append(flow)
        else:
            step = rates * dt
            for flow in flows:
                flow.remaining -= step
                if flow.remaining <= flow.done_below:
                    finished.append(flow)
        for flow in finished:
            flow.remaining = 0.0
            flow.finished_at = now
        for flow in finished:
            self._remove(flow)
            self.bytes_completed += flow.total_bytes
            flow.on_complete()

    def _reschedule(self) -> None:
        """(Re)arm the event for the earliest upcoming flow completion."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        flows = self._flows
        if not flows:
            return
        rates = self._allocation()
        if isinstance(rates, list):
            horizon = min(
                flow.remaining / rate for flow, rate in zip(flows, rates) if rate > 0
            )
        else:
            horizon = min([flow.remaining for flow in flows]) / rates
        # Guarantee the clock strictly advances even when the horizon
        # underflows below the float resolution at the current time;
        # together with the relative completion epsilon this prevents
        # zero-progress event loops on residual dust.
        target = self.sim.now + horizon
        if target <= self.sim.now:
            target = math.nextafter(self.sim.now, math.inf)
        self._completion_event = self.sim.schedule_at(target, self._on_completion)

    def _on_completion(self) -> None:
        self._completion_event = None
        self._advance()
        self._reschedule()


def _check_capacity(name: str, capacity: Optional[float]) -> None:
    if capacity is not None and not (capacity > 0 and math.isfinite(capacity)):
        raise SimulationError(
            f"resource {name!r} needs positive finite capacity, got {capacity!r}"
        )
