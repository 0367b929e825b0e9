"""Tests for the discrete-event engine."""

import random

import pytest

from repro.errors import SimulationError
from repro.simulator import Simulation


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulation()
        fired = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulation()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.5]
        assert sim.now == 5.5

    def test_schedule_at_absolute_time(self):
        sim = Simulation()
        seen = []
        sim.schedule_at(7.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.0]

    def test_call_soon_runs_at_current_time(self):
        sim = Simulation()
        seen = []
        sim.schedule(2.0, lambda: sim.call_soon(lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]

    def test_rejects_scheduling_into_the_past(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_rejects_nan_time(self):
        """NaN compares false against everything; it must not slip past
        the past-time check and poison the clock."""
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_rejects_negative_delay(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulation()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule(1.0, lambda: chain(n + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulation()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulation()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()


class TestRunUntil:
    def test_stops_at_horizon(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_resume_after_horizon(self):
        sim = Simulation()
        fired = []
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run()
        assert fired == [10]

    def test_until_advances_clock_even_without_events(self):
        sim = Simulation()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_until_in_the_past_never_rewinds(self):
        sim = Simulation()
        fired = []
        sim.schedule_at(10.0, lambda: fired.append(10.0))
        sim.schedule_at(20.0, lambda: fired.append(20.0))
        assert sim.run(until=15.0) == 15.0
        assert sim.run(until=5.0) == 15.0
        assert sim.now == 15.0
        with pytest.raises(SimulationError):
            sim.schedule_at(7.0, lambda: fired.append(7.0))
        sim.run()
        assert fired == [10.0, 20.0]

    def test_until_in_the_past_with_empty_queue(self):
        sim = Simulation()
        sim.run(until=15.0)
        assert sim.run(until=5.0) == 15.0
        assert sim.run(until=15.0) == 15.0
        assert sim.events_processed == 0

    @pytest.mark.parametrize("until", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_until_rejected(self, until):
        sim = Simulation()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1.0))
        sim.schedule_at(1e6, lambda: fired.append(1e6))
        with pytest.raises(SimulationError):
            sim.run(until=until)
        assert fired == []
        assert sim.now == 0.0
        sim.schedule_at(2.0, lambda: fired.append(2.0))
        sim.run()
        assert fired == [1.0, 2.0, 1e6]


class TestSafety:
    def test_max_events_guard(self):
        sim = Simulation(max_events=10)

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_not_reentrant(self):
        sim = Simulation()
        errors = []

        def inner():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, inner)
        sim.run()
        assert len(errors) == 1

    def test_counters(self):
        sim = Simulation()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 2
        sim.run()
        assert sim.events_processed == 1
        assert sim.pending_events == 0


class TestSimultaneousEvents:
    """Tie-break contract: equal times fire in scheduling (seq) order,
    even when the queue head gets cancelled."""

    def test_same_timestamp_fires_in_seq_order(self):
        sim = Simulation()
        fired = []
        for tag in "abcde":
            sim.schedule_at(3.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == list("abcde")

    def test_cancel_head_of_simultaneous_group(self):
        """Cancelling the queue head (lowest seq of a same-time group)
        must not disturb the rest of the group's order."""
        sim = Simulation()
        fired = []
        head = sim.schedule_at(1.0, lambda: fired.append("head"))
        for tag in "abc":
            sim.schedule_at(1.0, lambda t=tag: fired.append(t))
        sim.schedule_at(0.5, lambda: fired.append("early"))
        head.cancel()
        sim.run()
        assert fired == ["early", "a", "b", "c"]
        assert sim.now == 1.0

    def test_cancel_head_mid_run_from_earlier_event(self):
        """A callback cancelling the next pending head: the cancelled
        event is skipped, its same-time peers still fire in order."""
        sim = Simulation()
        fired = []
        victim = sim.schedule_at(2.0, lambda: fired.append("victim"))
        sim.schedule_at(2.0, lambda: fired.append("peer"))
        sim.schedule_at(1.0, victim.cancel)
        sim.run()
        assert fired == ["peer"]

    def test_cancelled_head_counts_as_pending_until_popped(self):
        sim = Simulation()
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(1.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 1

    def test_reentrant_same_time_scheduling_keeps_order(self):
        """call_soon from a callback lands after already-pending
        same-time events (higher seq)."""
        sim = Simulation()
        fired = []

        def first():
            fired.append("first")
            sim.call_soon(lambda: fired.append("nested"))

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second", "nested"]


# -- property check over random schedules ---------------------------------


def run_random_workload(seed: int):
    """One randomized schedule/cancel/tie workload.

    Returns the fired ``(time, seq)`` keys in firing order, the seqs of
    handles cancelled while still queued, every handle scheduled, and
    the engine.  The harness consumes its RNG inside callbacks too, so
    the schedule depends on the order events actually fire in.
    """
    sim = Simulation()
    rng = random.Random(seed)
    fired = []
    handles = []
    cancelled = set()

    def cancel(handle):
        if (handle.time, handle.seq) not in fired:
            cancelled.add(handle.seq)
        handle.cancel()

    def schedule(time):
        index = len(handles)

        def fn():
            handle = handles[index]
            fired.append((handle.time, handle.seq))
            roll = rng.random()
            if roll < 0.25:
                # Re-entrant: schedule more work from inside a callback,
                # sometimes at the *current* instant (a same-time tie).
                schedule(sim.now + rng.choice([0.0, 0.0, rng.random() * 7.0]))
            elif roll < 0.40:
                # Cancel a random handle — often the head.
                cancel(rng.choice(handles))

        handles.append(sim.schedule_at(time, fn))

    for i in range(250):
        # Mix continuous times with small integers to force collisions.
        schedule(rng.choice(
            [rng.random() * 100.0, float(rng.randrange(12)), 64.0 + i % 3]
        ))
    for _ in range(40):
        cancel(rng.choice(handles))
    # Exercise run(until), incremental admission, then drain with step().
    sim.run(until=30.0)
    schedule(55.0)
    sim.run(until=70.0)
    while sim.step():
        pass
    return fired, cancelled, handles, sim


@pytest.mark.parametrize("seed", range(60))
def test_random_schedules_keep_total_order(seed):
    fired, cancelled, handles, sim = run_random_workload(seed)
    # Strictly increasing (time, seq): no rewind, no duplicate, no reorder.
    assert all(a < b for a, b in zip(fired, fired[1:]))
    assert cancelled and len(fired) > 200
    keys = set(fired)
    for handle in handles:
        assert ((handle.time, handle.seq) in keys) != (handle.seq in cancelled)
    assert sim.events_processed == len(fired)
    assert sim.pending_events == 0
