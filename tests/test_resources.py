"""Tests for processor-sharing bandwidth resources."""

import random

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

    def test_cancel_after_same_advance_completion_is_a_no_op(self):
        """Completion wins: a flow that finished in the advance now
        delivering callbacks cannot be cancelled by an earlier
        callback, and its own callback still fires."""
        sim = Simulation()
        res = FairShareResource(sim, 100.0)
        done = []
        flows = {}

        def first():
            done.append("a")
            res.cancel_flow(flows["b"])

        res.start_flow(100.0, first)
        flows["b"] = res.start_flow(100.0, lambda: done.append("b"))
        sim.run()
        assert done == ["a", "b"]
        assert res.active_flows == 0
        assert flows["b"].finished_at == pytest.approx(2.0)

    def test_rejects_bad_arguments(self):
        sim = Simulation()
        with pytest.raises(SimulationError):
            FairShareResource(sim, 0.0)
        res = FairShareResource(sim, 10.0)
        with pytest.raises(SimulationError):
            res.start_flow(-5.0, lambda: None)
        with pytest.raises(SimulationError):
            res.start_flow(5.0, lambda: None, cap=0.0)

    def test_rejects_non_finite_flow_size(self):
        sim = Simulation()
        res = FairShareResource(sim, 10.0, name="disk0")
        for size in (float("nan"), float("inf")):
            with pytest.raises(SimulationError, match="'disk0'.*finite"):
                res.start_flow(size, lambda: None)
        assert res.active_flows == 0 and sim.pending_events == 0

    def test_rejects_nan_cap(self):
        sim = Simulation()
        res = FairShareResource(sim, 10.0, name="ofs")
        with pytest.raises(SimulationError, match="'ofs'.*cap"):
            res.start_flow(5.0, lambda: None, cap=float("nan"))
        assert res.active_flows == 0

    def test_rejects_non_finite_capacity(self):
        sim = Simulation()
        for capacity in (float("nan"), float("inf")):
            with pytest.raises(SimulationError, match="'array'.*capacity"):
                FairShareResource(sim, capacity, name="array")

    def test_set_capacity_rejects_non_finite(self):
        sim = Simulation()
        res = FairShareResource(sim, 10.0, name="array")
        res.start_flow(100.0, lambda: None)
        for capacity in (float("nan"), float("inf")):
            with pytest.raises(SimulationError, match="'array'.*capacity"):
                res.set_capacity(capacity)
        assert res.capacity == 10.0
        assert sim.run() == 10.0

    def test_mutating_current_rates_leaves_allocation(self):
        def run(mutate):
            sim = Simulation()
            res = FairShareResource(sim, 100.0)
            done = []
            res.start_flow(300.0, lambda: done.append(sim.now), cap=20.0)
            res.start_flow(400.0, lambda: done.append(sim.now))
            rates = res.current_rates()
            assert rates == [20.0, 80.0]
            if mutate:
                rates[:] = [1.0, 1.0]
            assert res.current_rates() == [20.0, 80.0]
            sim.run()
            return done

        assert run(mutate=True) == run(mutate=False) == [5.0, 15.0]

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


class _Recorder:
    """Completion order plus every flow's ``finished_at``, as reprs, so a
    pin compares the fair-share dynamics bit for bit."""

    def __init__(self, sim):
        self.sim = sim
        self.order = []
        self.flows = {}

    def start(self, res, tag, size, cap=None, then=None):
        def done():
            self.order.append(f"{tag}@{self.sim.now!r}")
            if then is not None:
                then()

        self.flows[tag] = res.start_flow(size, done, cap=cap)

    def start_at(self, t, res, tag, size, cap=None):
        self.sim.schedule_at(t, lambda: self.start(res, tag, size, cap))

    def pin(self):
        self.sim.run()
        return self.order + [f"{t}={f.finished_at!r}" for t, f in self.flows.items()]


def _scenario_mixed_caps():
    rng = random.Random(11)
    sim = Simulation()
    res, rec = FairShareResource(sim, 1000.0), _Recorder(sim)
    for i in range(12):
        cap = rng.choice([None, None, 80.0, 150.0, 333.3])
        rec.start_at(rng.uniform(0.0, 30.0), res, i, rng.uniform(1e2, 5e4), cap)
    return rec.pin()


def _scenario_uncapacitated():
    rng = random.Random(12)
    sim = Simulation()
    res, rec = FairShareResource(sim, None), _Recorder(sim)
    for i in range(8):
        cap = rng.choice([10.0, 25.0, 7.5])
        rec.start_at(rng.uniform(0.0, 5.0), res, i, rng.uniform(10, 500), cap)
    return rec.pin()


def _scenario_capacity_fn():
    rng = random.Random(13)
    sim = Simulation()
    res = FairShareResource(
        sim, 120.0, capacity_fn=lambda n: 120.0 / (1.0 + 0.15 * (n - 1))
    )
    rec = _Recorder(sim)
    for i in range(10):
        cap = rng.choice([None, 40.0])
        rec.start_at(rng.uniform(0.0, 20.0), res, i, rng.uniform(50, 3000), cap)
    return rec.pin()


def _scenario_set_capacity_mid_flow():
    rng = random.Random(14)
    sim = Simulation()
    res, rec = FairShareResource(sim, 300.0), _Recorder(sim)
    for i in range(9):
        cap = rng.choice([None, 60.0])
        rec.start_at(rng.uniform(0.0, 10.0), res, i, rng.uniform(100, 4000), cap)
    for t, capacity in ((3.3, 100.0), (7.7, 450.0), (12.1, 75.0)):
        sim.schedule_at(t, lambda c=capacity: res.set_capacity(c))
    return rec.pin()


def _scenario_cancel_from_callback():
    sim = Simulation()
    res, rec = FairShareResource(sim, 100.0), _Recorder(sim)
    rec.start(res, "first", 150.0, then=lambda: res.cancel_flow(rec.flows["victim"]))
    rec.start(res, "victim", 900.0)
    rec.start(res, "survivor", 700.0, cap=30.0)
    rec.start(res, "other", 400.0)
    return rec.pin() + [f"victim_remaining={rec.flows['victim'].remaining!r}"]


def _scenario_reentrant_start():
    sim = Simulation()
    res, rec = FairShareResource(sim, 64.0), _Recorder(sim)

    def chain(k):
        if k < 5:
            cap = None if k % 2 else 20.0
            rec.start(res, f"chain{k + 1}", 100.0 * (k + 1) / 3.0, cap, lambda: chain(k + 1))

    rec.start(res, "chain0", 333.0, then=lambda: chain(0))
    rec.start(res, "bystander", 1000.0 / 7.0)
    rec.start(res, "slow", 2000.0 / 3.0, cap=11.0)
    return rec.pin()


def _scenario_zero_bytes_and_ties():
    sim = Simulation()
    res, rec = FairShareResource(sim, 0.3), _Recorder(sim)
    rec.start(res, "zero0", 0.0)
    for i in range(4):
        rec.start(res, f"tie{i}", 0.1)
    rec.start(res, "dust", 1e-7)
    rec.start(res, "long", 0.7)
    rec.start_at(0.5, res, "zero1", 0.0)
    return rec.pin()


_SCENARIOS = {
    "mixed_caps": _scenario_mixed_caps,
    "uncapacitated": _scenario_uncapacitated,
    "capacity_fn": _scenario_capacity_fn,
    "set_capacity_mid_flow": _scenario_set_capacity_mid_flow,
    "cancel_from_callback": _scenario_cancel_from_callback,
    "reentrant_start": _scenario_reentrant_start,
    "zero_bytes_and_ties": _scenario_zero_bytes_and_ties,
}

#: Completion order and ``finished_at`` reprs recorded on the solver that
#: re-solved the allocation in both ``_advance`` and ``_reschedule``.
_PINNED = {
    "mixed_caps": [
        "8@42.67278028887534",
        "3@76.85321948271493",
        "11@137.0722141167289",
        "5@204.400254519342",
        "2@219.47679602275392",
        "6@279.9349442191787",
        "9@299.12313542053784",
        "7@304.2584042317095",
        "4@341.5139298531106",
        "1@353.7720115440518",
        "0@364.48594010970197",
        "10@539.9298549131339",
        "8=42.67278028887534",
        "4=341.5139298531106",
        "2=219.47679602275392",
        "11=137.0722141167289",
        "10=539.9298549131339",
        "1=353.7720115440518",
        "5=204.400254519342",
        "9=299.12313542053784",
        "7=304.2584042317095",
        "6=279.9349442191787",
        "3=76.85321948271493",
        "0=364.48594010970197",
    ],
    "uncapacitated": [
        "1@1.3258664491921706",
        "5@8.896008315447023",
        "0@12.115937997020836",
        "2@15.423505600192119",
        "3@15.641521224256993",
        "6@41.41630790131627",
        "4@42.124877682326144",
        "7@43.71084296664377",
        "4=42.124877682326144",
        "6=41.41630790131627",
        "1=1.3258664491921706",
        "0=12.115937997020836",
        "5=8.896008315447023",
        "2=15.423505600192119",
        "7=43.71084296664377",
        "3=15.641521224256993",
    ],
    "capacity_fn": [
        "4@12.062924155408234",
        "2@106.03697831967314",
        "3@109.49215426130391",
        "8@134.57979790649074",
        "1@236.5549772756165",
        "9@248.35805891842654",
        "7@253.4184531587542",
        "0@259.735217793332",
        "6@259.83991892936757",
        "5@260.5941009177214",
        "4=12.062924155408234",
        "0=259.735217793332",
        "9=248.35805891842654",
        "3=109.49215426130391",
        "2=106.03697831967314",
        "1=236.5549772756165",
        "8=134.57979790649074",
        "7=253.4184531587542",
        "6=259.83991892936757",
        "5=260.5941009177214",
    ],
    "set_capacity_mid_flow": [
        "8@11.349421727180074",
        "1@90.79670851721585",
        "2@119.06466097649475",
        "5@139.88027322535896",
        "6@193.00093381659522",
        "7@200.3709657686555",
        "0@222.8658699932468",
        "4@234.77789170161248",
        "3@236.5960114965602",
        "6=193.00093381659522",
        "7=200.3709657686555",
        "4=234.77789170161248",
        "1=90.79670851721585",
        "3=236.5960114965602",
        "8=11.349421727180074",
        "0=222.8658699932468",
        "2=119.06466097649475",
        "5=139.88027322535896",
    ],
    "cancel_from_callback": [
        "first@6.0",
        "other@9.571428571428571",
        "survivor@24.333333333333336",
        "first=6.0",
        "victim=None",
        "survivor=24.333333333333336",
        "other=9.571428571428571",
        "victim_remaining=750.0",
    ],
    "reentrant_start": [
        "bystander@5.390835579514825",
        "chain0@8.97843665768194",
        "chain1@10.645103324348606",
        "chain2@11.902964959568731",
        "chain3@16.90296495956873",
        "chain4@19.418688230008982",
        "chain5@27.752021563342314",
        "slow@60.606060606060595",
        "chain0=8.97843665768194",
        "bystander=5.390835579514825",
        "slow=60.606060606060595",
        "chain1=10.645103324348606",
        "chain2=11.902964959568731",
        "chain3=16.90296495956873",
        "chain4=19.418688230008982",
        "chain5=27.752021563342314",
    ],
    "zero_bytes_and_ties": [
        "zero0@0.0",
        "dust@0.0",
        "zero1@0.5",
        "tie0@1.6666666666666667",
        "tie1@1.6666666666666667",
        "tie2@1.6666666666666667",
        "tie3@1.6666666666666667",
        "long@3.666666666666666",
        "zero0=0.0",
        "tie0=1.6666666666666667",
        "tie1=1.6666666666666667",
        "tie2=1.6666666666666667",
        "tie3=1.6666666666666667",
        "dust=0.0",
        "long=3.666666666666666",
        "zero1=0.5",
    ],
}


class TestFairSharePins:
    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_dynamics_are_bit_identical(self, name):
        assert _SCENARIOS[name]() == _PINNED[name]
