"""Behavioural tests for the JobTracker over a tiny deterministic cluster,
plus byte pins of the task lifecycle on traced FB-2009 replays."""

import hashlib
import json
from functools import lru_cache

import pytest

from repro.cluster import Cluster, DiskSpec, MachineSpec, NetworkModel, SlotConfig
from repro.core import Deployment
from repro.core.architectures import named_architectures
from repro.elastic import CHAOS_SCENARIOS, BrownoutConfig
from repro.faults import default_resilience_plan
from repro.mapreduce import HadoopConfig, JobSpec, JobTracker, build_nodes
from repro.mapreduce.jobtracker import decide_num_reducers
from repro.runner.spec import canonical_json
from repro.runner.work import job_result_to_dict
from repro.simulator import Simulation
from repro.storage import OrangeFS
from repro.telemetry.export import chrome_trace_json
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer
from repro.units import GB, MB
from repro.workload.fb2009 import DAY, generate_fb2009


def make_cluster(count=2, map_slots=2, reduce_slots=1, cores=4, core_speed=1.0):
    machine = MachineSpec(
        name="tiny",
        cores=cores,
        core_speed=core_speed,
        ram=16 * GB,
        disk=DiskSpec(bandwidth=100 * MB, capacity=100 * GB),
        nic_bandwidth=1.25e9,
    )
    return Cluster(
        name="tiny-cluster",
        machine=machine,
        count=count,
        slots=SlotConfig(map_slots, reduce_slots),
        network=NetworkModel(latency=1e-4, nic_bandwidth=1.25e9),
    )


def make_config(**overrides):
    defaults = dict(
        heap_size=1 * GB,
        task_overhead=1.0,
        job_setup_overhead=2.0,
        task_jitter=0.0,
    )
    defaults.update(overrides)
    return HadoopConfig(**defaults)


def make_storage(sim, latency=0.0, stream_cap=100 * MB, per_job=0.0):
    return OrangeFS(
        sim,
        num_servers=8,
        server_bandwidth=400 * MB,
        access_latency=latency,
        stream_cap=stream_cap,
        per_job_overhead=per_job,
        capacity=10_000 * GB,
    )


def make_tracker(sim, cluster=None, config=None, storage=None):
    cluster = cluster or make_cluster()
    config = config or make_config()
    storage = storage or make_storage(sim)
    nodes = build_nodes(sim, cluster, config, ramdisk_bandwidth=2 * GB)
    return JobTracker(sim, cluster, config, storage, nodes)


def make_job(input_gb=0.5, shuffle_ratio=1.0, **overrides):
    input_bytes = input_gb * GB
    defaults = dict(
        job_id=f"job-{input_gb}-{shuffle_ratio}",
        app="test",
        input_bytes=input_bytes,
        shuffle_bytes=input_bytes * shuffle_ratio,
        output_bytes=input_bytes * 0.1,
        map_cpu_per_byte=2.0 / (128 * MB),  # 2 s per block on a 1.0x core
        reduce_cpu_per_byte=0.0,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestSingleJob:
    def test_job_completes_with_ordered_timestamps(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        done = []
        tracker.submit(make_job(), done.append)
        sim.run()
        assert len(done) == 1
        r = done[0]
        assert r.submit_time == 0.0
        assert r.submit_time < r.first_map_start
        assert r.first_map_start < r.last_map_end
        assert r.last_map_end <= r.last_shuffle_end
        assert r.last_shuffle_end <= r.end_time
        assert r.execution_time > 0

    def test_phase_durations_are_consistent(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        done = []
        tracker.submit(make_job(), done.append)
        sim.run()
        r = done[0]
        total_from_phases = (
            r.queue_delay + r.map_phase + r.shuffle_phase + r.reduce_phase
        )
        assert r.execution_time == pytest.approx(total_from_phases)

    def test_setup_overhead_delays_first_map(self):
        sim = Simulation()
        storage = make_storage(sim, per_job=3.0)
        tracker = make_tracker(sim, config=make_config(job_setup_overhead=2.0),
                               storage=storage)
        done = []
        tracker.submit(make_job(), done.append)
        sim.run()
        # setup (2) + storage per-job (3) + task overhead (1) before I/O.
        assert done[0].first_map_start >= 5.0

    def test_wave_arithmetic(self):
        """8 blocks on 4 map slots with equal task times = exactly 2 waves."""
        sim = Simulation()
        tracker = make_tracker(sim)  # 2 machines x 2 map slots
        one_wave = []
        tracker.submit(make_job(input_gb=0.5, job_id="w1"), one_wave.append)
        sim.run()
        sim2 = Simulation()
        tracker2 = make_tracker(sim2)
        two_waves = []
        tracker2.submit(make_job(input_gb=1.0, job_id="w2"), two_waves.append)
        sim2.run()
        assert two_waves[0].map_phase == pytest.approx(
            2 * one_wave[0].map_phase, rel=0.05
        )

    def test_more_slots_shrink_map_phase(self):
        sim = Simulation()
        tracker = make_tracker(sim, cluster=make_cluster(map_slots=2))
        few = []
        tracker.submit(make_job(input_gb=2.0, job_id="few"), few.append)
        sim.run()
        sim2 = Simulation()
        tracker2 = make_tracker(
            sim2, cluster=make_cluster(count=8, map_slots=2)
        )
        many = []
        tracker2.submit(make_job(input_gb=2.0, job_id="many"), many.append)
        sim2.run()
        assert many[0].map_phase < few[0].map_phase

    def test_faster_cores_shrink_cpu_bound_map(self):
        job = make_job(input_gb=1.0)
        times = {}
        for speed in (1.0, 2.0):
            sim = Simulation()
            tracker = make_tracker(sim, cluster=make_cluster(core_speed=speed))
            done = []
            tracker.submit(job, done.append)
            sim.run()
            times[speed] = done[0].map_phase
        assert times[2.0] < times[1.0]

    def test_empty_job_still_completes(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        done = []
        tracker.submit(
            make_job(input_gb=0.0, shuffle_ratio=0.0, job_id="empty"), done.append
        )
        sim.run()
        assert len(done) == 1

    def test_map_writes_output_goes_to_storage(self):
        sim = Simulation()
        storage = make_storage(sim)
        tracker = make_tracker(sim, storage=storage)
        done = []
        job = make_job(
            input_gb=0.5,
            shuffle_ratio=0.0,
            job_id="dfsio",
            output_bytes=0.5 * GB,
            input_read_fraction=0.0,
            map_writes_output=True,
            num_reducers_hint=1,
        )
        tracker.submit(job, done.append)
        sim.run()
        assert storage.array.bytes_completed == pytest.approx(0.5 * GB)

    def test_slots_return_after_completion(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        tracker.submit(make_job())
        sim.run()
        assert tracker.total_free_map_slots == tracker.cluster.total_map_slots
        assert tracker.queued_map_tasks == 0
        for node in tracker.nodes:
            assert node.active_tasks == 0

    def test_determinism_across_runs(self):
        def run_once():
            sim = Simulation()
            tracker = make_tracker(sim, config=make_config(task_jitter=0.25))
            done = []
            tracker.submit(make_job(job_id="fixed"), done.append)
            sim.run()
            return done[0].execution_time

        assert run_once() == run_once()

    def test_jitter_perturbs_but_preserves_scale(self):
        def run(jitter):
            sim = Simulation()
            tracker = make_tracker(sim, config=make_config(task_jitter=jitter))
            done = []
            tracker.submit(make_job(job_id="jit"), done.append)
            sim.run()
            return done[0].execution_time

        smooth, jittered = run(0.0), run(0.3)
        assert jittered != smooth
        assert jittered == pytest.approx(smooth, rel=0.35)


class TestMultiJob:
    def test_fifo_ordering_between_jobs(self):
        """A small job behind a big one waits for the big job's waves."""
        sim = Simulation()
        tracker = make_tracker(sim)
        done = {}
        big = make_job(input_gb=4.0, job_id="big")
        small = make_job(input_gb=0.25, job_id="small")
        tracker.submit(big, lambda r: done.setdefault("big", r))
        tracker.submit(small, lambda r: done.setdefault("small", r))
        sim.run()
        # The small job's first map cannot start before the queue drains
        # enough; with FIFO it effectively runs after the big job's maps.
        assert done["small"].first_map_start > done["big"].first_map_start
        assert done["small"].execution_time > 10.0

    def test_isolated_small_job_is_fast(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        done = []
        tracker.submit(make_job(input_gb=0.25, job_id="alone"), done.append)
        sim.run()
        assert done[0].execution_time < 15.0

    def test_concurrent_jobs_share_slots(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        results = []
        for i in range(3):
            tracker.submit(make_job(input_gb=0.5, job_id=f"c{i}"), results.append)
        sim.run()
        assert len(results) == 3
        assert tracker.active_jobs == 0

    def test_results_recorded_on_tracker(self):
        sim = Simulation()
        tracker = make_tracker(sim)
        tracker.submit(make_job(job_id="r0"))
        tracker.submit(make_job(job_id="r1"))
        sim.run()
        assert sorted(r.job_id for r in tracker.results) == ["r0", "r1"]


class TestDecideNumReducers:
    def make_spec(self, shuffle_gb, hint=None):
        return make_job(
            input_gb=1.0,
            shuffle_ratio=0.0,
            job_id=f"nr{shuffle_gb}{hint}",
            shuffle_bytes=shuffle_gb * GB,
            num_reducers_hint=hint,
        )

    def test_hint_wins(self):
        assert decide_num_reducers(self.make_spec(50, hint=1), 24, GB) == 1

    def test_hint_capped_by_slots(self):
        assert decide_num_reducers(self.make_spec(50, hint=99), 24, GB) == 24

    def test_zero_shuffle_one_reducer(self):
        assert decide_num_reducers(self.make_spec(0), 24, GB) == 1

    def test_sized_by_target(self):
        assert decide_num_reducers(self.make_spec(6), 24, GB) == 6

    def test_capped_by_slots(self):
        assert decide_num_reducers(self.make_spec(100), 24, GB) == 24


# -- lifecycle pins -------------------------------------------------------

#: Jobs in the pinned FB-2009 replays, and their arrival window.
PIN_JOBS = 60
PIN_DURATION = DAY * PIN_JOBS / 6000.0

#: sha256 of (the raw Chrome-trace JSON, unsorted so span-arg key order
#: is pinned; the canonical results; the canonical metrics dump) of a
#: traced 60-job FB-2009 replay, keyed architecture/scenario.  Healthy
#: runs, the default resilience plan (seed 1), and the four chaos
#: scenarios (seed 0) with brownout on.  Recorded with Python 3.11 and
#: numpy 2.4 (the trace draws its sizes through numpy).
LIFECYCLE_DIGESTS = {
    "Hybrid/healthy": (
        "dfc31e74e809085b71fea7eca1760fccba87554309a37c2e4e6ab81e96dc5083",
        "b5d5913cbc181f8ffbe96ae64a69014694add5f6bca942af0daeeee5b8755c37",
        "34f1bcdf6aa67652e75bcb0b2d0a69d4655c4b55597e9775cc67f4b92ca7ff6b",
    ),
    "Hybrid/resilience": (
        "97eb6e542531f80ff3e176777497569692e97d6c2de7d22d5d6879c5d49b8788",
        "da13ec70afffad30bf3bf2a0c761c186fb877e34e987df2b9fc093d1fed01f2b",
        "6ea08b261d5a1f0748a9b90ac147b3a1642db2e62916289d2dbd3f79dff2766c",
    ),
    "Hybrid/cascading_loss": (
        "8a059674a9f8f03d431fba39e1ebde0a025fa68365678c9da938d1e0a6d9592e",
        "62524af288bdbcbcfc8a9969e06652fc1f762d2fd75b451b902187454a8bfbb1",
        "fca803ac5fc8c0b1cde9f529ce35dbc4033faeddc0e2a57762017a2ec83fbff8",
    ),
    "Hybrid/flapping_node": (
        "08f1c62a8a863c50fc27de9d727163cf1b3cc90cea3de4a0b374bb1b033829f9",
        "056ca795b495d1e4b01eba9b1aa0fc338df985d0b0a209032c2d6ed81e8ba755",
        "e21cd2246621301fa151948e7a323b268f1c488c0ecb985af692fbafbdff8fb7",
    ),
    "Hybrid/kill_during_decommission": (
        "95fb9be8297f5343ba9d22887210a5fe4b9c8baa4adbe854417fe9a4bfa5808a",
        "088d7687c8be128f5fe984a0a5edf27ec222711a635a1b47d7ce9172fa539131",
        "589148af04d07fe2142d32412c64ac57ebb4fcfb80ad260a82c6a3fbc14f0272",
    ),
    "Hybrid/thundering_herd": (
        "f33b652854a68434a74e09ed74cbb84643cf8be84f4c8c317c40d317c3871f1f",
        "3bfc6ecf0eadf5677d31fbb4b08808f14b16c0423380bf5119d11fc80cf80ff1",
        "d6c61926eefc03e6f79de5ca3ddefd77f9ee7fb7c9087c180bacc58b15473a66",
    ),
    "THadoop/healthy": (
        "dd34e65a3393eb3bbb32bfa366a76303e438936b93fa813dd83b3dc34e6af5f6",
        "dac15841466c71a256a2e801ab50c4535d183c33c885a29f4da0b433ef1f5c6b",
        "d367cabf2296bd9160a5f86916c5a6a08266237ac716c5e0dfb89a18ea657a08",
    ),
    "THadoop/resilience": (
        "143efe6a539d0489c2535ca86352034ffff291cccdc9471e297669c1fd4db1ea",
        "70f4e8328230bbf69398aee7f0460867847610f1dad7d1628e1209cdeccd79b2",
        "06e3fad818e8390f049a220250d42608473c9c5df935a234b84ff20c58256f81",
    ),
    "THadoop/cascading_loss": (
        "4d60b2e4f232036e4be41e9950f1eaf218cdde35cab69a93ab6d8941e402a9d3",
        "67ab6b95e47bc5624a59e14d8f1eee7677943e3f1ed04669e5e3783b45244b10",
        "34407de870f93516073d52eb5eeef517004a5d8be8373b32dcb3c4df8708e250",
    ),
    "THadoop/flapping_node": (
        "90a2b3f88ea9f7ce676b4993723b842c1853977f1de20dd64ae83bd3719e7c28",
        "c044c408dc9fafa80317b65ba8cedf4f3791cb19dcbe99f3227aa5b9fa42018a",
        "9464a2d84297cdd19c3dc2e8c99a158e61816047288729a1513b384050b05156",
    ),
    "THadoop/kill_during_decommission": (
        "46db197a8427ac7b6a68fcb4b03244da7eb850a50197dac140490245ab3fdb96",
        "4c0c01b2f17425cb1e4260e3f799824391b2ca715e3685f9925a4b849ab640f6",
        "c25effe3746187ed8167467362cd810bdd47a7906985c2926f202b3ce673b356",
    ),
    "THadoop/thundering_herd": (
        "f5f7d92e49365c8c04af19914b6248089811b4e0ccdfcb7944e2e08df2aef842",
        "bcac5ba9b84fb5940cd7fee39e3dce21d7bcc680d92f42b3011b8426951378de",
        "29ba41635024582ad4054c6d3f329e53c70c4e3c4ca998b6f86a5634e11ffa19",
    ),
}

#: The same triple for a speculative tracker: task jitter 0.6, slack
#: 1.05, four 0.75 GB jobs on a 4-node cluster.
SPECULATIVE_DIGESTS = (
    "80ec936e9c57bea0313f8e75b550ee2afec1cc0508bf0b9a1e5c18174c7bbc49",
    "2799252321a225b2af9b5a7a8f0c8c7717d9f4920f4d5111be73ae58ce31954d",
    "0d31f5a132df84d96751f3eb9aa296266c0bf8064126c17ec56b24039e8ff90e",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fingerprint(results, tracer, metrics):
    return (
        _sha(json.dumps(chrome_trace_json(tracer))),
        _sha(canonical_json([job_result_to_dict(r) for r in results])),
        _sha(canonical_json(metrics.dump())),
    )


@lru_cache(maxsize=None)
def _pin_trace():
    return tuple(
        generate_fb2009(PIN_JOBS, seed=2009, duration=PIN_DURATION)
        .shrink(5.0)
        .to_jobspecs()
    )


def _replay(arch, tracer=None, metrics=None, scenario="healthy"):
    fault_plan = brownout = None
    if scenario == "resilience":
        fault_plan = default_resilience_plan(PIN_DURATION, seed=1)
    elif scenario != "healthy":
        fault_plan = CHAOS_SCENARIOS[scenario](PIN_DURATION, seed=0).fault_plan
        brownout = BrownoutConfig()
    deployment = Deployment(
        named_architectures()[arch],
        tracer=tracer,
        metrics=metrics,
        fault_plan=fault_plan,
        brownout=brownout,
    )
    results = deployment.run_trace(list(_pin_trace()))
    deployment.fail_unfinished()
    return results


PIN_SCENARIOS = ("healthy", "resilience") + tuple(sorted(CHAOS_SCENARIOS))


class TestLifecyclePins:
    """Every task stage, span arg and metric of a traced replay, pinned."""

    @pytest.mark.parametrize("scenario", PIN_SCENARIOS)
    @pytest.mark.parametrize("arch", ["Hybrid", "THadoop"])
    def test_traced_replay_unchanged(self, arch, scenario):
        tracer, metrics = Tracer(), MetricsRegistry()
        results = _replay(arch, tracer, metrics, scenario)
        assert _fingerprint(results, tracer, metrics) == (
            LIFECYCLE_DIGESTS[f"{arch}/{scenario}"]
        )

    def test_speculative_tracker_unchanged(self):
        sim = Simulation()
        tracer, metrics = Tracer(), MetricsRegistry()
        sim.attach_telemetry(tracer, metrics)
        tracker = make_tracker(
            sim,
            cluster=make_cluster(count=4, map_slots=4, reduce_slots=4, cores=8),
            config=make_config(
                task_jitter=0.6, speculative_execution=True, speculative_slack=1.05
            ),
        )
        done = []
        for i in range(4):
            tracker.submit(make_job(input_gb=0.75, job_id=f"s{i}"), done.append)
        sim.run()
        assert tracker.speculative_launches > 0
        assert _fingerprint(done, tracer, metrics) == SPECULATIVE_DIGESTS


class TestObserversKeepMetrics:
    @pytest.mark.parametrize("arch", ["RHadoop", "Hybrid", "THadoop"])
    def test_metrics_only_dump_equals_traced_dump(self, arch):
        """Attaching a tracer adds spans, never metrics: a registry alone
        records the same dump, shuffle metrics included."""
        alone = MetricsRegistry()
        _replay(arch, metrics=alone)
        traced = MetricsRegistry()
        _replay(arch, tracer=Tracer(), metrics=traced)
        assert alone.dump() == traced.dump()
        cluster = named_architectures()[arch].members[-1].cluster.name
        assert alone.dump()[f"{cluster}.shuffle_bytes"] > 0
