"""Tests for processor-sharing bandwidth resources."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simulator import FairShareResource, Simulation


class TestFairShareBasics:
    def test_single_flow_runs_at_capacity(self):
        sim = Simulation()
        res = FairShareResource(sim, 100.0)
        done = []
        res.start_flow(1000.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(10.0)]

    def test_cap_binds_below_capacity(self):
        sim = Simulation()
        res = FairShareResource(sim, 100.0)
        done = []
        res.start_flow(1000.0, lambda: done.append(sim.now), cap=10.0)
        sim.run()
        assert done == [pytest.approx(100.0)]

    def test_equal_flows_share_equally(self):
        sim = Simulation()
        res = FairShareResource(sim, 100.0)
        done = []
        res.start_flow(500.0, lambda: done.append(("a", sim.now)))
        res.start_flow(500.0, lambda: done.append(("b", sim.now)))
        sim.run()
        # Both at 50 B/s -> both finish at t=10.
        assert done == [("a", pytest.approx(10.0)), ("b", pytest.approx(10.0))]

    def test_departure_speeds_up_survivor(self):
        sim = Simulation()
        res = FairShareResource(sim, 100.0)
        done = {}
        res.start_flow(200.0, lambda: done.setdefault("short", sim.now))
        res.start_flow(600.0, lambda: done.setdefault("long", sim.now))
        sim.run()
        # Shared 50/50 until t=4 (short done), then long runs at 100:
        # long has 600-200=400 left -> finishes at 4 + 4 = 8.
        assert done["short"] == pytest.approx(4.0)
        assert done["long"] == pytest.approx(8.0)

    def test_arrival_slows_existing_flow(self):
        sim = Simulation()
        res = FairShareResource(sim, 100.0)
        done = {}
        res.start_flow(1000.0, lambda: done.setdefault("first", sim.now))
        sim.schedule(5.0, lambda: res.start_flow(250.0, lambda: done.setdefault("second", sim.now)))
        sim.run()
        # first: 500 by t=5, then 50 B/s alongside second: second done at
        # t=10 (250/50), first has 250 left at t=10 -> done at 12.5.
        assert done["second"] == pytest.approx(10.0)
        assert done["first"] == pytest.approx(12.5)

    def test_progressive_filling_redistributes_capped_slack(self):
        sim = Simulation()
        res = FairShareResource(sim, 100.0)
        done = {}
        res.start_flow(1000.0, lambda: done.setdefault("capped", sim.now), cap=20.0)
        res.start_flow(800.0, lambda: done.setdefault("open", sim.now))
        sim.run()
        # capped flow: 20 B/s -> t=50; open flow gets 80 B/s -> t=10.
        assert done["open"] == pytest.approx(10.0)
        assert done["capped"] == pytest.approx(50.0)

    def test_zero_byte_flow_completes_async(self):
        sim = Simulation()
        res = FairShareResource(sim, 100.0)
        done = []
        res.start_flow(0.0, lambda: done.append(sim.now))
        assert done == []  # not synchronous
        sim.run()
        assert done == [0.0]

    def test_uncapacitated_needs_flow_caps(self):
        sim = Simulation()
        res = FairShareResource(sim, None)
        with pytest.raises(SimulationError):
            res.start_flow(100.0, lambda: None)
        done = []
        res.start_flow(100.0, lambda: done.append(sim.now), cap=10.0)
        sim.run()
        assert done == [pytest.approx(10.0)]

    def test_cancel_flow(self):
        sim = Simulation()
        res = FairShareResource(sim, 100.0)
        done = []
        flow = res.start_flow(1000.0, lambda: done.append("cancelled"))
        res.start_flow(1000.0, lambda: done.append("kept"))
        sim.schedule(1.0, lambda: res.cancel_flow(flow))
        sim.run()
        assert done == ["kept"]

    def test_rejects_bad_arguments(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            FairShareResource(sim, 0.0)
        res = FairShareResource(sim, 10.0)
        with pytest.raises(SimulationError):
            res.start_flow(-5.0, lambda: None)
        with pytest.raises(SimulationError):
            res.start_flow(5.0, lambda: None, cap=0.0)

    def test_current_rates_sum_within_capacity(self):
        sim = Simulation()
        res = FairShareResource(sim, 100.0)
        for _ in range(5):
            res.start_flow(1e6, lambda: None)
        rates = res.current_rates()
        assert sum(rates) == pytest.approx(100.0)
        assert all(r == pytest.approx(20.0) for r in rates)


class TestFairShareProperties:
    @given(
        sizes=st.lists(
            st.floats(min_value=1.0, max_value=1e9), min_size=1, max_size=20
        ),
        capacity=st.floats(min_value=1.0, max_value=1e9),
    )
    @settings(max_examples=60, deadline=None)
    def test_makespan_equals_total_work_over_capacity(self, sizes, capacity):
        """With no caps, processor sharing is work-conserving: the last
        completion happens exactly at total_bytes / capacity."""
        sim = Simulation()
        res = FairShareResource(sim, capacity)
        done = []
        for size in sizes:
            res.start_flow(size, lambda: done.append(sim.now))
        end = sim.run()
        assert len(done) == len(sizes)
        assert end == pytest.approx(sum(sizes) / capacity, rel=1e-6)

    @given(
        sizes=st.lists(
            st.floats(min_value=1.0, max_value=1e6), min_size=2, max_size=10
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_completion_order_follows_size(self, sizes):
        """Equal-rate flows complete in (near-)size order.

        Flows whose sizes differ by less than the resource's relative
        completion epsilon (1 part in 1e9) legitimately finish in the
        same batch, so the order check tolerates such ties.
        """
        sim = Simulation()
        res = FairShareResource(sim, 100.0)
        finished = []
        for i, size in enumerate(sizes):
            res.start_flow(size, lambda i=i: finished.append(i))
        sim.run()
        finish_sizes = [sizes[i] for i in finished]
        for a, b in zip(finish_sizes, finish_sizes[1:]):
            assert b >= a * (1 - 1e-8)

    @given(
        sizes=st.lists(
            st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8
        ),
        cap=st.floats(min_value=0.5, max_value=50.0),
        capacity=st.floats(min_value=10.0, max_value=1000.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_caps_lower_bound_completion_times(self, sizes, cap, capacity):
        """No flow can finish earlier than bytes / min(cap, capacity)."""
        sim = Simulation()
        res = FairShareResource(sim, capacity)
        completion = {}
        for i, size in enumerate(sizes):
            res.start_flow(size, lambda i=i: completion.setdefault(i, sim.now), cap=cap)
        sim.run()
        for i, size in enumerate(sizes):
            bound = size / min(cap, capacity)
            assert completion[i] >= bound * (1 - 1e-6)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_staggered_arrivals_all_complete(self, data):
        """Flows arriving at random times all complete, clock monotone."""
        n = data.draw(st.integers(min_value=1, max_value=12))
        arrivals = sorted(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=100.0),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        sizes = data.draw(
            st.lists(
                st.floats(min_value=1.0, max_value=1e5), min_size=n, max_size=n
            )
        )
        sim = Simulation()
        res = FairShareResource(sim, 37.0)
        done = []
        for t, size in zip(arrivals, sizes):
            sim.schedule_at(
                t, lambda s=size: res.start_flow(s, lambda: done.append(sim.now))
            )
        sim.run()
        assert len(done) == n
        assert done == sorted(done)
        assert res.active_flows == 0
