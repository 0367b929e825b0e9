"""The benchmark's four workloads.

Each workload makes its inputs from the seed alone, builds the system
(``setup``), runs one timed pass (``run_pass``) and tears the system
down.  A pass reports its host wall time, the jobs (or cold cells) it
completed, the host latency of each round, and a digest of its results.
A *round* is the smallest unit a caller waits on:

* ``fb2009-exact`` / ``fb2009-analytic`` — the replay advanced by one of
  ``WINDOWS`` equal arrival windows (``Deployment.advance_until``), then
  one last round that drains the tail.  ``Deployment.run_trace`` is
  ``submit_at`` for every job followed by ``run()``; advancing in windows
  executes the same event sequence, so the results are the same bytes.
* ``daemon-small`` — one closed-loop client round: ``POST /jobs`` with
  ten NDJSON lines, ``POST /advance`` to the batch's last arrival,
  ``GET /jobs/<id>`` for each job of the batch, then ``GET /metrics``.
* ``fig-grid`` — one warm resolve of a figure's sweeps from the store its
  cold runs filled (what re-drawing the figure costs on a warm store).

Simulated time appears only in output checks; every timing is host time
(``time.perf_counter``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro import (
    GB,
    GREP,
    MB,
    TESTDFSIO_WRITE,
    WORDCOUNT,
    Deployment,
    FastPathPolicy,
    JobSubmission,
    MetricsBus,
    PoolRunner,
    ReproService,
    ServiceClient,
    estimate_cross_point,
    generate_fb2009,
    hybrid,
    out_hdfs,
    out_ofs,
    sweep_experiment,
    up_hdfs,
    up_ofs,
)
from repro.analysis.figures import DFSIO_SIZES, FIG7_SIZES, SHUFFLE_APP_SIZES
from repro.runner import canonical_json, decode_result, open_result_store
from repro.service.server import serve
from repro.workload.fb2009 import DAY, FB2009_SEGMENTS

perf = time.perf_counter

#: The paper's FB-2009 replay: 6000 arrivals per simulated day, data
#: sizes shrunk by 5 (Section V).
ARRIVALS_PER_DAY = 6000.0
SHRINK = 5.0
#: Arrival windows per replay pass (rounds, before the drain round).
WINDOWS = 200

#: The exact replay's cost follows its total input (about 5.4 events per
#: 128 MB block), and three percent of FB-2009 jobs are 20-200 GB after
#: shrinking, so the total of a 1000-job draw varies by about ten percent
#: between seeds.  The exact workload is therefore stated at a scale: each
#: of its traces is, of CANDIDATES draws of the generator, the one whose
#: total input is closest to the generator's expected total.
CANDIDATES = 16
DRAW_STRIDE = 1_000_003

RESULT_FIELDS = (
    "job_id", "app", "cluster", "input_bytes", "shuffle_bytes",
    "submit_time", "first_map_start", "last_map_end", "last_shuffle_end",
    "end_time", "failed", "failure_reason",
)


def result_digest(results: Sequence[Any]) -> str:
    """SHA-256 of every result field, in completion order (``repr`` keeps
    every bit of each float)."""
    h = hashlib.sha256()
    for r in results:
        h.update("|".join(repr(getattr(r, f)) for f in RESULT_FIELDS).encode())
        h.update(b"\n")
    return h.hexdigest()


def fb2009_trace(num_jobs: int, seed: int):
    """An FB-2009 trace at the paper's arrival rate and shrink factor."""
    return generate_fb2009(
        num_jobs=num_jobs,
        duration=DAY * num_jobs / ARRIVALS_PER_DAY,
        seed=seed,
    ).shrink(SHRINK)


def expected_input_bytes(num_jobs: int) -> float:
    """The generator's expected total input for ``num_jobs`` jobs (the
    mean of its log-uniform segments), after shrinking."""
    weight = sum(s.weight for s in FB2009_SEGMENTS)
    mean = sum(
        s.weight * (s.high - s.low) / math.log(s.high / s.low)
        for s in FB2009_SEGMENTS
    ) / weight
    return num_jobs * mean / SHRINK


def scaled_trace(num_jobs: int, seed: int, draw: int = 0):
    """Trace ``draw`` of ``seed`` at the stated scale (see above)."""
    target = expected_input_bytes(num_jobs)
    first = draw * CANDIDATES
    traces = [
        fb2009_trace(num_jobs, seed + (first + k) * DRAW_STRIDE)
        for k in range(CANDIDATES)
    ]
    return min(traces, key=lambda t: abs(sum(j.input_bytes for j in t.jobs) - target))


@dataclass
class Pass:
    """One timed pass."""

    wall: float
    work: int
    rounds: List[float]
    digest: str
    attempted: int
    failed: int


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


class Workload:
    #: Distinct input sets per seed; a run replays each at least once.
    draws = 1
    #: Pool workers, so a per-worker figure can be put back together.
    workers = 1

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def setup(self, seed: int, draw: int = 0) -> Any:
        raise NotImplementedError

    def run_pass(self, state: Any) -> Pass:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        pass

    def checks(self, seed: int, state: Any, done: Pass) -> List[Check]:
        """Output checks on the state a pass left (not timed)."""
        return []

    def extras(self, state: Any, done: Pass) -> Dict[str, float]:
        """Per-layer figures read from the state a traced pass left."""
        return {}


# -- trace replays ------------------------------------------------------


@dataclass
class ReplayState:
    jobs: List[Any]
    deployment: Deployment


class Replay(Workload):
    """An FB-2009 replay on the Hybrid architecture."""

    def __init__(
        self,
        workdir: Path,
        num_jobs: int,
        analytic: bool,
        draws: int = 1,
        recorded: Optional[Dict[int, str]] = None,
    ) -> None:
        super().__init__(workdir)
        self.num_jobs = num_jobs
        self.analytic = analytic
        self.draws = draws
        #: seed -> digest recorded for the first draw of that seed.
        self.recorded = recorded or {}

    def jobs(self, seed: int, draw: int) -> List[Any]:
        if self.analytic:
            return fb2009_trace(self.num_jobs, seed).to_jobspecs()
        return scaled_trace(self.num_jobs, seed, draw).to_jobspecs()

    def deployment(self, analytic: bool) -> Deployment:
        policy = FastPathPolicy.full_analytic() if analytic else None
        return Deployment(hybrid(), fast_path=policy)

    def setup(self, seed: int, draw: int = 0) -> ReplayState:
        return ReplayState(self.jobs(seed, draw), self.deployment(self.analytic))

    def run_pass(self, state: ReplayState) -> Pass:
        jobs, deployment = state.jobs, state.deployment
        rounds: List[float] = []
        t0 = perf()
        for job in jobs:
            deployment.submit_at(job)
        horizon = jobs[-1].arrival_time
        for k in range(1, WINDOWS + 1):
            r0 = perf()
            deployment.advance_until(horizon * k / WINDOWS)
            rounds.append(perf() - r0)
        r0 = perf()
        results = deployment.run()
        end = perf()
        rounds.append(end - r0)
        ok = sum(1 for r in results if not r.failed)
        return Pass(
            wall=end - t0,
            work=ok,
            rounds=rounds,
            digest=result_digest(results),
            attempted=len(jobs),
            failed=len(jobs) - ok,
        )

    def checks(self, seed: int, state: ReplayState, done: Pass) -> List[Check]:
        results = state.deployment.results
        ids = {r.job_id for r in results if not r.failed}
        out = [
            Check(
                "every job finishes",
                len(results) == len(state.jobs) and ids == {j.job_id for j in state.jobs},
                f"{len(ids)} of {len(state.jobs)} jobs finished without failure",
            )
        ]
        if seed in self.recorded:
            out.append(
                Check(
                    "digest equals the recorded one",
                    done.digest == self.recorded[seed],
                    done.digest[:16],
                )
            )
        return out

    def extras(self, state: ReplayState, done: Pass) -> Dict[str, float]:
        if self.analytic:
            return {}
        # Full-analytic vs exact, per job, on this same trace (not timed).
        exact = {r.job_id: r.execution_time for r in state.deployment.results}
        approx = self.deployment(True).run_trace(state.jobs)
        errs = [
            abs(r.execution_time - exact[r.job_id]) / exact[r.job_id]
            for r in approx
            if exact[r.job_id] > 0
        ]
        return {
            "fastpath.err_p99": statistics.quantiles(errs, n=100, method="inclusive")[98],
            "fastpath.err_max": max(errs),
        }


# -- the daemon ---------------------------------------------------------

#: Jobs per NDJSON round, and the largest input the daemon's stream
#: carries: the interactive class Algorithm 1 sends to scale-up.
DAEMON_BATCH = 10
DAEMON_MAX_INPUT = 64 * MB


@dataclass
class DaemonState:
    submissions: List[JobSubmission]
    batches: List[Any]
    tmp: str
    service: ReproService
    server: Any
    thread: threading.Thread
    client: ServiceClient
    accepted: List[str] = field(default_factory=list)
    rejected: int = 0
    finished: int = 0


class Daemon(Workload):
    """A closed loop of one client against an in-process daemon."""

    def __init__(self, workdir: Path, num_jobs: int = 2000) -> None:
        super().__init__(workdir)
        self.num_jobs = num_jobs

    def submissions(self, seed: int) -> List[JobSubmission]:
        # About two jobs in three are under 64 MB after shrinking.
        trace = fb2009_trace(2 * self.num_jobs + 16, seed)
        small = [j for j in trace.jobs if j.input_bytes <= DAEMON_MAX_INPUT]
        if len(small) < self.num_jobs:
            raise RuntimeError(f"seed {seed} has only {len(small)} small jobs")
        return [
            JobSubmission(
                job_id=j.job_id,
                input_bytes=j.input_bytes,
                shuffle_bytes=j.shuffle_bytes,
                output_bytes=j.output_bytes,
                arrival_time=j.arrival_time,
            )
            for j in small[: self.num_jobs]
        ]

    def setup(self, seed: int, draw: int = 0) -> DaemonState:
        subs = self.submissions(seed)
        batches = []
        for start in range(0, len(subs), DAEMON_BATCH):
            chunk = subs[start:start + DAEMON_BATCH]
            text = "".join(json.dumps(s.to_wire()) + "\n" for s in chunk)
            batches.append((text, [s.job_id for s in chunk], chunk[-1].arrival_time))
        tmp = tempfile.mkdtemp(prefix="daemon-", dir=self.workdir)
        service = ReproService(
            "Hybrid",
            checkpoint_path=os.path.join(tmp, "checkpoint.json"),
            bus=MetricsBus(),
        )
        server = serve(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return DaemonState(
            subs, batches, tmp, service, server, thread, ServiceClient(server.url)
        )

    def run_pass(self, state: DaemonState) -> Pass:
        client = state.client
        rounds: List[float] = []
        requests = missing = 0
        t0 = perf()
        for text, ids, until in state.batches:
            r0 = perf()
            for status in client.submit_ndjson(text):
                if status.accepted:
                    state.accepted.append(status.job_id)
                else:
                    state.rejected += 1
            client.advance(until)
            for job_id in ids:
                if client.job_status(job_id) is None:
                    missing += 1
            client.metrics()
            rounds.append(perf() - r0)
            requests += 3 + len(ids)
        summary = client.drain()
        wall = perf() - t0
        requests += 1
        state.finished = summary["finished"] - summary["failed"]
        return Pass(
            wall=wall,
            work=state.finished,
            rounds=rounds,
            digest=result_digest(state.service.results),
            attempted=len(state.submissions) + requests,
            failed=state.rejected + missing + len(state.accepted) - state.finished,
        )

    def teardown(self, state: DaemonState) -> None:
        state.server.shutdown()
        state.server.server_close()
        state.thread.join(timeout=30)
        shutil.rmtree(state.tmp, ignore_errors=True)

    def checks(self, seed: int, state: DaemonState, done: Pass) -> List[Check]:
        accepted = set(state.accepted)
        batch_jobs = [s.to_jobspec() for s in state.submissions if s.job_id in accepted]
        reference = Deployment(hybrid()).run_trace(batch_jobs)
        counters = state.client.metrics()["service"]
        own = {
            "accepted": len(state.accepted),
            "rejected": state.rejected,
            "finished": len(state.accepted),
            "pending": 0,
        }
        served = {key: counters[key] for key in own}
        return [
            Check(
                "every accepted job finishes",
                state.finished == len(state.accepted),
                f"{state.finished} of {len(state.accepted)} accepted jobs finished",
            ),
            Check(
                "daemon results equal a batch run_trace",
                done.digest == result_digest(reference),
                f"{len(reference)} jobs",
            ),
            Check(
                "/metrics reconciles with the client",
                served == own,
                json.dumps(served, sort_keys=True),
            ),
        ]

    def extras(self, state: DaemonState, done: Pass) -> Dict[str, float]:
        instruments = state.service.instruments
        return {
            "service.rejected": instruments.rejected_total,
            "service.clamped": instruments.clamped_total,
        }


# -- the measurement grid -----------------------------------------------


@dataclass
class GridState:
    #: Per figure, the cell list of each of its sweeps.
    figures: List[List[List[Any]]]
    tmp: str
    store: Any
    runner: PoolRunner
    cold: List[Any] = field(default_factory=list)
    warm: List[Any] = field(default_factory=list)
    warm_simulated: int = 0


class FigGrid(Workload):
    """The isolated cells behind Figs. 5, 6, 7 and 9."""

    def __init__(self, workdir: Path, warm_rounds: int = 40, tiny: bool = False) -> None:
        super().__init__(workdir)
        self.workers = min(2, os.cpu_count() or 1)
        self.warm_rounds = warm_rounds
        self.tiny = tiny

    def figures(self) -> List[List[List[Any]]]:
        """Figs. 5, 6, 9 and 7, each as the cell lists of its sweeps.

        These are the figures' own cells (task-jitter seed 0), so the seed
        does not change them.
        """
        table1 = (out_ofs(), up_ofs(), out_hdfs(), up_hdfs())
        shuffle, dfsio, fig7 = SHUFFLE_APP_SIZES, DFSIO_SIZES, FIG7_SIZES
        if self.tiny:
            shuffle, dfsio, fig7 = shuffle[:2], dfsio[:2], fig7[:3]
        up_out = (up_ofs(), out_ofs())
        return [
            [list(sweep_experiment(table1, WORDCOUNT, shuffle).cells)],
            [list(sweep_experiment(table1, GREP, shuffle).cells)],
            [list(sweep_experiment(table1, TESTDFSIO_WRITE, dfsio).cells)],
            [
                list(sweep_experiment(up_out, WORDCOUNT, fig7).cells),
                list(sweep_experiment(up_out, GREP, fig7).cells),
            ],
        ]

    def setup(self, seed: int, draw: int = 0) -> GridState:
        figures = self.figures()
        tmp = tempfile.mkdtemp(prefix="grid-", dir=self.workdir)
        store = open_result_store(root=tmp)
        return GridState(figures, tmp, store, PoolRunner(max_workers=self.workers, cache=store))

    def run_pass(self, state: GridState) -> Pass:
        # Figure by figure, one runner call per sweep as the figure
        # functions make them: the figure cold, then re-resolved warm.
        # Spreading the warm rounds over the pass keeps a few seconds of
        # host-speed drift from setting their median.
        runner = state.runner
        wall = 0.0
        simulated = 0
        rounds: List[float] = []
        for sweeps in state.figures:
            for cells in sweeps:
                t0 = perf()
                state.cold += runner.run_cells(cells)
                wall += perf() - t0
                simulated += runner.last_stats.simulated
            for _ in range(self.warm_rounds):
                r0 = perf()
                warm = [o for cells in sweeps for o in runner.run_cells(cells)]
                rounds.append(perf() - r0)
            state.warm += warm
        state.warm_simulated = runner.lifetime_stats.simulated - simulated
        failed = runner.lifetime_stats.failures
        cells = sum(len(c) for sweeps in state.figures for c in sweeps)
        return Pass(
            wall=wall,
            work=simulated - failed,
            rounds=rounds,
            digest=hashlib.sha256(
                "\n".join(canonical_json(o.payload) for o in state.cold).encode()
            ).hexdigest(),
            attempted=cells * (1 + self.warm_rounds),
            failed=failed,
        )

    def teardown(self, state: GridState) -> None:
        close = getattr(state.store, "close", None)
        if close is not None:
            close()
        shutil.rmtree(state.tmp, ignore_errors=True)

    def checks(self, seed: int, state: GridState, done: Pass) -> List[Check]:
        cold = [canonical_json(o.payload) for o in state.cold]
        warm = [canonical_json(o.payload) for o in state.warm]
        out = [
            Check(
                "no cell fails",
                all(o.ok for o in state.cold + state.warm),
                f"{len(state.cold)} cells",
            ),
            Check("warm payloads equal cold", warm == cold, f"{len(warm)} payloads"),
            Check(
                "warm passes simulate nothing",
                state.warm_simulated == 0,
                f"{state.warm_simulated} cells simulated warm",
            ),
        ]
        if not self.tiny:
            bands = {"wordcount": (24 * GB, 40 * GB), "grep": (10 * GB, 22 * GB)}
            n = len(FIG7_SIZES)
            fig7 = state.cold[-4 * n:]
            for i, app in enumerate(("wordcount", "grep")):
                up = fig7[2 * i * n:(2 * i + 1) * n]
                out_ = fig7[(2 * i + 1) * n:(2 * i + 2) * n]
                cross = estimate_cross_point(
                    list(FIG7_SIZES),
                    [decode_result(o.payload).execution_time for o in up],
                    [decode_result(o.payload).execution_time for o in out_],
                )
                low, high = bands[app]
                out.append(
                    Check(
                        f"Fig. 7 {app} cross point in band",
                        cross is not None and low <= cross <= high,
                        "none" if cross is None else f"{cross / GB:.1f} GB",
                    )
                )
        return out

    def extras(self, state: GridState, done: Pass) -> Dict[str, float]:
        stats = state.runner.lifetime_stats
        return {
            "runner.hit_ratio": stats.cache_hits / stats.cells if stats.cells else 0.0,
            "runner.retries": stats.retries,
            "runner.failures": stats.failures,
        }


def build(name: str, workdir: Path, tiny: bool = False) -> Workload:
    """The named workload at its benchmark size (``tiny`` for self-tests)."""
    if name == "fb2009-exact":
        # Five 1000-job traces fill a run; pooling them keeps one seed's
        # arrival pattern from setting the round percentiles.
        return Replay(
            workdir, 40 if tiny else 1000, analytic=False, draws=5,
            recorded={} if tiny else RECORDED_DIGESTS,
        )
    if name == "fb2009-analytic":
        return Replay(workdir, 200 if tiny else 50_000, analytic=True)
    if name == "daemon-small":
        return Daemon(workdir, num_jobs=30 if tiny else 2000)
    if name == "fig-grid":
        return FigGrid(workdir, warm_rounds=3 if tiny else 40, tiny=tiny)
    raise KeyError(name)


WORKLOADS = ("fb2009-exact", "fb2009-analytic", "daemon-small", "fig-grid")

#: Digest of the first exact trace at its benchmark size, for the
#: default seed (2009) and the held-out seed (4242).
RECORDED_DIGESTS: Dict[int, str] = {
    2009: "f1bec82c167b5535b5010be3c76fd8cba5bf02556ba431dbeffdf600d8beb5e6",
    4242: "aa3eb2462bb0629f1db5f85539f741cb41381f82711733df5115285a60c99878",
}
