"""One event plan: faults and scale events in one FaultPlan (docs/FAULTS.md).

The contracts pinned here:

* **byte-identity** — the four chaos scenarios (RHadoop, Hybrid,
  THadoop; scenario seeds 0 and 1) and the default resilience replays
  produce exactly the results and summaries they produced when scale
  events lived in a separate plan; fault-only plans keep their content
  keys;
* **ordering** — at one timestamp every fault fires before every scale
  event, whatever the authoring order;
* **validation** — a malformed event raises :class:`FaultError` when it
  is built or loaded, never mid-run;
* **isolated cells** run their whole plan, scale events included;
* **fast path** — the analytic fast path refuses any non-empty plan and
  any autoscaler with one message, and accepts an empty plan.

The digests were recorded with Python 3.11 and numpy 2.4 (the FB-2009
trace draws its sizes through numpy's ``log``/``exp``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import pytest

from repro.apps import GREP
from repro.core import Deployment, FastPathPolicy
from repro.core.architectures import named_architectures, out_ofs, rhadoop
from repro.elastic import CHAOS_SCENARIOS, BrownoutConfig, ThresholdAutoscaler
from repro.errors import ConfigurationError, FaultError
from repro.faults import (
    NODE_CRASH,
    NODE_DECOMMISSION,
    OFS_SERVER_REMOVE,
    FaultEvent,
    FaultPlan,
    crash_storm_plan,
    default_resilience_plan,
)
from repro.runner.spec import canonical_json, isolated_cell, replay_cell
from repro.runner.work import execute_cell, job_result_to_dict
from repro.telemetry.tracer import Tracer
from repro.workload.fb2009 import DAY, generate_fb2009

from tests.test_service import make_trace

NUM_JOBS = 25
DURATION = DAY * NUM_JOBS / 6000.0

#: sha256 of canonical JSON of [results, fault_summary(), elastic_summary()]
#: for a 25-job FB-2009 chaos run, keyed scenario/architecture/seed.
CHAOS_DIGESTS = {
    "cascading_loss/Hybrid/0": "1e4bf728f85b59a08bd344ce213d1e1b5ef1d330540d21fbb397c5dcc5f59816",
    "cascading_loss/Hybrid/1": "6ab85dbf20bce3923c9fbfce13dac38cd7170441b0bffa431b2ed4214789dff6",
    "cascading_loss/RHadoop/0": "0c68cf5fc9917292ef00960394390dcd4e02d97049379657bd0e8cd87885c72e",
    "cascading_loss/RHadoop/1": "40b8b5bdf6bca30faed66ad246fa000593934668c5bfc9fd728818bdb53aafc9",
    "cascading_loss/THadoop/0": "bdeaf84b97c7804e744e5ad7f59930dda7e1fe8c38582ac81c90158fb493a6b0",
    "cascading_loss/THadoop/1": "a4625394b2779f36a129c03b095224e63d12c18598983f62cbbad8e64c95d408",
    "flapping_node/Hybrid/0": "c825d109bc55db310be49e2690e3a04abd215ca21404c5539a2dab54fe545cd2",
    "flapping_node/Hybrid/1": "1bcc7f6deb66a2d89a322ac2fcb23b42569733350f4c5442dcbacac2ac9cfca4",
    "flapping_node/RHadoop/0": "3f7898f801abf9a4727084d97c9c32a2cf4ac9a1bf6c45382c894736b6f043fb",
    "flapping_node/RHadoop/1": "5f23fd4774ce3bcef3be77f33ee33e8979710b71087c9bf6644bd66e66fb2c6b",
    "flapping_node/THadoop/0": "e1422039b6c8649be0648464f2b3f958c6cda97ecd2d058e21e376f68fa0ecd5",
    "flapping_node/THadoop/1": "37e964e966ef0d56caecf4bc929eddf3ed9870daf50be9f0ba41d1b83c34d3c6",
    "kill_during_decommission/Hybrid/0": "bb961021b1f6ab390948f003baf352377f4a017a3ad52351b745ef5413ef4a1e",
    "kill_during_decommission/Hybrid/1": "947142c908b9c3f80fb3f043ae35b2dc63ad659abbad6d113f15566a2ab0ceda",
    "kill_during_decommission/RHadoop/0": "1b818f40c0666eddc4990633eb9f613848fa844e14bbe103ed88020ac2d46f53",
    "kill_during_decommission/RHadoop/1": "a2bd564f114c8e96a7821d3c2f71c3aff0a59538dee7e229e0bef8bd94fc141c",
    "kill_during_decommission/THadoop/0": "b427e4262d04c95375595068b795f1798a21b2769728eb642734c52d1607cef1",
    "kill_during_decommission/THadoop/1": "13c68c8779882ec8823cfda775032385c744c6ff53ce1594a335b0c14bbabe45",
    "thundering_herd/Hybrid/0": "59efba7d60f6b0240296d2b747c31c588f1197ebdd6543d5d2240989d128ab78",
    "thundering_herd/Hybrid/1": "dda520797b6df78602977312dfaf3d4f561ecbcfe2b2080b3c8f309226456722",
    "thundering_herd/RHadoop/0": "4d5561736bf3bec8eb71f87460339efe6b8302e10b358d6c6ac2dd3683155de7",
    "thundering_herd/RHadoop/1": "079716119a692fcc7c5163b57ad7d58ed9f44777d167b618a4fe152fa4cf0157",
    "thundering_herd/THadoop/0": "97e5b48015100fb08a8baf3e630b6c3c7b08d3bbe54ca9fbf8d19f201a886f69",
    "thundering_herd/THadoop/1": "0f15705cc5f3c526c06e4a1f195363b42c92f94bba584bd937bf38c333e5d070",
}

#: sha256 of the canonical replay payload (results + fault and elastic
#: summaries) of a 25-job replay under the default resilience plan.
RESILIENCE_DIGESTS = {
    "Hybrid/0": "093d443a9b7c3463b4b2eb1143d36072c7c3cf13851edc9b688dd92d8b2e5cc7",
    "Hybrid/1": "130ef5afb3dfd03d07005cc8cbcf7f8c0842c5b0210c0256a4c7506eb3be4790",
    "RHadoop/0": "6df7084a395bba991bcdc7bb61caaee8ab82a4c4dfe9bc6573da4cdef26a78d1",
    "RHadoop/1": "159794583a74f62e88a8cd0b30beee4acc5b9b8b2f849bff5431315dfaef05fd",
    "THadoop/0": "0abc99ad1367eefe4a4c666feada5a39795801466c8b958cc81cc0d6aa901f14",
    "THadoop/1": "18ac6e7290265985388a1dee0e086a9adcafb4c7c59650cb2c639b24b727504c",
}

#: Content keys of fault-only plans (a 1440 s window).
FAULT_PLAN_KEYS = {
    "empty": "9dc3ffbc96e18c600ff814c95613742b76609c15f909ea5b36ddf5a0dd8709f9",
    "resilience/0": "dddc48be640bb421581f8994c89522ff95f06f822888762eae155a728ebc8200",
    "resilience/1": "a7dc1dcc71fc78ff397dd992d21610a285fcee9731622205dc22265b7423b127",
    "storm/0": "0bf23d2d06185d348044ddcf6031725e87136f31d53ece488671342074f4506f",
    "storm/1": "d7872c53a3446813593b3da50ae9d6befb027d2164a577123f9c8c484c817655",
}


def sha256(value) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(CHAOS_SCENARIOS))
    def test_chaos_scenarios_unchanged(self, name):
        jobs = generate_fb2009(
            NUM_JOBS, seed=2009, duration=DURATION
        ).shrink(5.0).to_jobspecs()
        specs = named_architectures()
        digests = {}
        for arch in ("Hybrid", "RHadoop", "THadoop"):
            for seed in (0, 1):
                scenario = CHAOS_SCENARIOS[name](DURATION, seed=seed)
                deployment = Deployment(
                    specs[arch],
                    fault_plan=scenario.fault_plan,
                    brownout=BrownoutConfig(),
                )
                results = deployment.run_trace(jobs)
                deployment.fail_unfinished()
                digests[f"{name}/{arch}/{seed}"] = sha256([
                    [job_result_to_dict(r) for r in results],
                    deployment.fault_summary(),
                    deployment.elastic_summary(),
                ])
        assert digests == {
            key: value for key, value in CHAOS_DIGESTS.items()
            if key.startswith(f"{name}/")
        }

    def test_resilience_replays_unchanged(self):
        specs = named_architectures()
        digests = {
            f"{arch}/{seed}": sha256(execute_cell(replay_cell(
                specs[arch], num_jobs=NUM_JOBS, duration=DURATION,
                fault_plan=default_resilience_plan(DURATION, seed=seed),
            )))
            for arch in ("Hybrid", "RHadoop", "THadoop")
            for seed in (0, 1)
        }
        assert digests == RESILIENCE_DIGESTS

    def test_fault_only_plan_keys_unchanged(self):
        keys = {"empty": FaultPlan.empty().content_key()}
        for seed in (0, 1):
            keys[f"resilience/{seed}"] = default_resilience_plan(
                1440.0, seed=seed
            ).content_key()
            keys[f"storm/{seed}"] = crash_storm_plan(1440.0, seed=seed).content_key()
        assert keys == FAULT_PLAN_KEYS


class TestOrdering:
    def test_same_time_crash_fires_before_decommission(self):
        decommission = FaultEvent(
            time=5.0, kind=NODE_DECOMMISSION, member="out", node=3
        )
        crash = FaultEvent(time=5.0, kind=NODE_CRASH, member="out", node=3)
        plan = FaultPlan(events=(decommission, crash))
        assert plan.events == (crash, decommission)
        tracer = Tracer()
        deployment = Deployment(rhadoop(), fault_plan=plan, tracer=tracer)
        deployment.run_trace(make_trace(10).to_jobspecs())
        fired = [
            e.name for e in tracer.events
            if e.name in ("fault_injected", "scale_applied", "scale_skipped")
        ]
        # The crash applies first; draining a dead node then skips.
        assert fired == ["fault_injected", "scale_skipped"]
        summary = deployment.fault_summary()
        assert summary["nodes_crashed"] == 1
        assert summary["nodes_decommissioned"] == 0
        assert summary["scale_events_skipped"] == 1


BAD_FIELDS = [
    ("time", math.nan),
    ("time", math.inf),
    ("time", -1.0),
    ("time", "5"),
    ("time", True),
    ("node", 1.5),
    ("node", -1),
    ("node", True),
    ("count", 0),
    ("count", 2.0),
    ("count", True),
    ("member", 1),
    ("member", None),
]


class TestValidation:
    @pytest.mark.parametrize("kind", [NODE_CRASH, NODE_DECOMMISSION])
    @pytest.mark.parametrize("field,value", BAD_FIELDS)
    def test_bad_event_rejected_on_build_and_load(self, kind, field, value):
        fields = {"time": 1.0, "kind": kind, "member": "out", "node": 0, "count": 1}
        fields[field] = value
        with pytest.raises(FaultError):
            FaultEvent(**fields)
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"schema": 1, "events": [fields]})

    @pytest.mark.parametrize("seed", ["abc", 1.5, True, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"events": [], "seed": seed})
        with pytest.raises(FaultError):
            FaultPlan(seed=seed)

    def test_integer_time_is_accepted(self):
        assert FaultEvent(time=3, kind=NODE_CRASH).time == 3


class TestIsolatedCells:
    def test_isolated_cell_runs_its_scale_events(self):
        # Twelve scale-out nodes read fast enough that the OFS array is
        # the bottleneck, so losing one stripe server shows.
        cell = isolated_cell(out_ofs(), GREP, "8GB")
        plan = FaultPlan(events=(
            FaultEvent(time=0.0, kind=OFS_SERVER_REMOVE, count=1),
        ))
        shrunk = replace(cell, fault_plan=plan)
        assert shrunk.content_key() != cell.content_key()
        assert execute_cell(shrunk) != execute_cell(cell)


class TestFastPathGuards:
    @pytest.mark.parametrize("extra", [
        {"fault_plan": FaultPlan(events=(FaultEvent(time=1.0, kind=NODE_CRASH),))},
        {"fault_plan": FaultPlan(events=(
            FaultEvent(time=1.0, kind=NODE_DECOMMISSION),
        ))},
        {"autoscaler": ThresholdAutoscaler()},
    ], ids=["fault-kind", "scale-kind", "autoscaler"])
    def test_fast_path_refuses_dynamic_clusters(self, extra):
        with pytest.raises(ConfigurationError, match="static, fault-free"):
            Deployment(rhadoop(), fast_path=FastPathPolicy.small_jobs(), **extra)

    def test_fast_path_accepts_an_empty_plan(self):
        deployment = Deployment(
            rhadoop(),
            fast_path=FastPathPolicy.small_jobs(),
            fault_plan=FaultPlan.empty(),
        )
        assert deployment.fast_path is not None
