"""Wall-clock spans recorded from outside the program.

A traced run wraps public entry points of each ``repro`` layer (and
every callback handed to ``Simulation.schedule_at`` and
``FairShareResource.start_flow``) with a span: name, start, end and
the span that was open when it began.  Spans stay in memory and are
written out when the run ends.  No file under ``src/`` changes; the
wrappers are installed on the classes and modules for the traced pass
only and removed afterwards.

A span name is ``"<layer>:<what>"``.  A callback is labelled with the
layer of the module that defined it, so a jobtracker closure that a
storage flow completes is charged to ``mapreduce``, not ``resources``.
A layer's self time is the time of its spans minus the time of their
child spans; summed over every span, self times telescope to the root
span, which is the traced wall time.

Threads: each thread keeps its own span stack.  A thread whose stack is
empty (an HTTP handler thread of the daemon) nests its spans under
``remote_parent``, the client request span open at the time, because the
closed-loop client is blocked while the handler works.

Processes: a process-pool worker forked while tracing is installed
starts with an empty log, and ``runner:execute_cell`` flushes the
worker's spans to a spool directory after each cell; ``collect_spool``
merges them into the parent's log.
"""

from __future__ import annotations

import functools
import os
import pickle
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

#: Module prefix -> layer, first match wins (longest prefixes first).
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.simulator.resources", "resources"),
    ("repro.simulator", "simulator"),
    ("repro.mapreduce", "mapreduce"),
    ("repro.storage", "storage"),
    ("repro.core.fastpath", "fastpath"),
    ("repro.core", "core"),
    ("repro.workload", "workload"),
    ("repro.runner", "runner"),
    ("repro.service", "service"),
    ("repro.telemetry", "bus"),
)


def layer_of_module(module: Optional[str]) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module and (module == prefix or module.startswith(prefix + ".")):
            return layer
    return "other"


def callback_layer(fn: Callable[..., Any]) -> str:
    """The layer of the module that defined ``fn`` (functions, lambdas,
    bound methods and ``functools.partial`` objects)."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    return layer_of_module(getattr(fn, "__module__", None))


class SpanLog:
    """Spans of one process, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every span and counter (also run in a forked worker)."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts.clear()
        self._local = threading.local()
        # Daemon handler threads append beside the client thread.
        self._lock = threading.Lock()
        self.remote_parent = -1

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, nid: int) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else self.remote_parent)
            self.end.append(0.0)
            self.start.append(perf())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf()
        self._stack().pop()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "names": list(self.names),
            "name_id": self.name_id.tobytes(),
            "parent": self.parent.tobytes(),
            "start": self.start.tobytes(),
            "end": self.end.tobytes(),
            "counts": dict(self.counts),
        }


class Chunk:
    """A span table read back from a snapshot (one process's spans)."""

    def __init__(self, snap: Dict[str, Any]) -> None:
        self.snap = snap
        self.names: List[str] = snap["names"]
        self.counts: Dict[str, float] = snap["counts"]
        self.name_id = array("i", snap["name_id"])
        self.parent = array("i", snap["parent"])
        self.start = array("d", snap["start"])
        self.end = array("d", snap["end"])

    def self_times(self) -> Tuple[List[float], List[float]]:
        """Per span: duration, and duration minus child durations."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own


def aggregate(chunks: List[Chunk]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, ``total_s`` and ``self_s``."""
    out: Dict[str, Dict[str, float]] = {}
    for chunk in chunks:
        dur, own = chunk.self_times()
        for i, nid in enumerate(chunk.name_id):
            row = out.setdefault(
                chunk.names[nid], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += own[i]
    return out


def merge_rows(*tables: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Sum per-name rows of several :func:`aggregate` results."""
    out: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            into = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                into[key] += value
    return out


def root_seconds(chunks: List[Chunk]) -> float:
    """Total duration of the root spans (parent -1) of ``chunks``."""
    total = 0.0
    for chunk in chunks:
        for i, p in enumerate(chunk.parent):
            if p < 0:
                total += chunk.end[i] - chunk.start[i]
    return total


class Tracer:
    """Installs and removes the span wrappers around ``repro``."""

    def __init__(self, spool: Path) -> None:
        self.log = SpanLog()
        self.spool = spool
        self._patches: List[Tuple[Any, str, Any]] = []
        self._in_worker = False

    # -- wrappers ------------------------------------------------------

    def span(self, name: str, fn: Callable[..., Any], remote: bool = False):
        log = self.log
        nid = log.intern(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = log.open(nid)
            if remote:
                outer, log.remote_parent = log.remote_parent, idx
            try:
                return fn(*args, **kwargs)
            finally:
                if remote:
                    log.remote_parent = outer
                log.close(idx)

        return wrapper

    def callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span named after its defining layer (once:
        a callback handed on from one entry point to another keeps its
        first label)."""
        if getattr(fn, "traced_callback", False):
            return fn
        log = self.log
        nid = log.intern(callback_layer(fn) + ":callback")

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            idx = log.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(idx)

        wrapped.traced_callback = True  # type: ignore[attr-defined]
        return wrapped

    def _event_loop(self, loop: Callable[..., Any]) -> Callable[..., Any]:
        """``Simulation.run``/``step`` in a span, counting the events run."""
        log, spanned = self.log, self.span("simulator:loop", loop)

        @functools.wraps(loop)
        def traced_loop(sim: Any, *args: Any, **kwargs: Any) -> Any:
            before = sim.events_processed
            try:
                return spanned(sim, *args, **kwargs)
            finally:
                log.count("simulator.events", sim.events_processed - before)

        return traced_loop

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str, remote: bool = False) -> None:
        self._patch(owner, attr, self.span(name, getattr(owner, attr), remote))

    # -- install -------------------------------------------------------

    def install(self) -> None:
        import repro.runner.pool as pool_mod
        import repro.runner.work as work_mod
        import repro.service.api as service_api
        from repro.core.deployment import Deployment
        from repro.core.fastpath import FastPathEngine
        from repro.mapreduce.jobtracker import JobTracker
        from repro.mapreduce.nodes import NodeRuntime
        from repro.mapreduce.queues import FairQueue, FifoQueue
        from repro.runner.cache import ResultCache
        from repro.runner.pool import PoolRunner
        from repro.runner.spec import CellSpec
        from repro.runner.store import SqliteResultCache
        from repro.service.api import ReproService, ServiceClient
        from repro.service.checkpoint import CheckpointStore
        from repro.service.server import ServiceRequestHandler
        from repro.simulator.engine import Simulation
        from repro.simulator.resources import FairShareResource
        from repro.storage.disk import DiskDevice
        from repro.storage.hdfs import HDFS
        from repro.storage.ofs import OrangeFS
        from repro.telemetry.bus import MetricsBus
        from repro.workload.fb2009 import FB2009Generator
        from repro.workload.trace import Trace

        log, callback = self.log, self.callback

        # simulator: the event loop, and every callback it is handed.
        for attr in ("run", "step"):
            self._patch(Simulation, attr, self._event_loop(getattr(Simulation, attr)))
        schedule_at = Simulation.schedule_at

        def traced_schedule_at(sim: Any, when: float, fn: Callable[[], Any]):
            log.count("simulator.scheduled")
            return schedule_at(sim, when, callback(fn))

        self._patch(Simulation, "schedule_at", traced_schedule_at)

        # resources, with the completion callbacks they invoke directly,
        # and the jobtracker's task-slot bookkeeping.
        start_flow = self.span("resources:call", FairShareResource.start_flow)

        def traced_start_flow(res: Any, num_bytes: float, on_complete: Any,
                              *args: Any, **kwargs: Any):
            return start_flow(res, num_bytes, callback(on_complete), *args, **kwargs)

        self._patch(FairShareResource, "start_flow", traced_start_flow)
        self.wrap(FairShareResource, "cancel_flow", "resources:call")
        self.wrap(FairShareResource, "set_capacity", "resources:call")
        for cls in (FifoQueue, FairQueue):
            for attr in ("push", "pop", "task_finished"):
                self.wrap(cls, attr, "slots:call")
        for attr in ("task_started", "task_finished"):
            self.wrap(NodeRuntime, attr, "slots:call")

        # mapreduce, storage, core, fast path, workload generation.
        self.wrap(JobTracker, "submit", "mapreduce:submit")
        for cls in (HDFS, OrangeFS):
            self.wrap(cls, "read", "storage:read")
            self.wrap(cls, "write", "storage:write")
        self.wrap(DiskDevice, "transfer", "storage:transfer")
        self.wrap(Deployment, "submit", "core:submit")
        try_submit = self.span("fastpath:try_submit", FastPathEngine.try_submit)

        def traced_try_submit(engine: Any, *args: Any, **kwargs: Any) -> bool:
            taken = try_submit(engine, *args, **kwargs)
            log.count("fastpath.calls")
            log.count("fastpath.accepted", 1 if taken else 0)
            return taken

        self._patch(FastPathEngine, "try_submit", traced_try_submit)
        self.wrap(FB2009Generator, "generate", "workload:generate")
        self.wrap(Trace, "shrink", "workload:generate")
        self.wrap(Trace, "to_jobspecs", "workload:generate")

        # runner: dispatch, store I/O, and cell execution (in workers).
        self.wrap(PoolRunner, "run_cells", "runner:run_cells")
        self.wrap(CellSpec, "content_key", "runner:content_key")
        for cls in (ResultCache, SqliteResultCache):
            for attr in ("get", "get_many"):
                self.wrap(cls, attr, "runner:store_get")
            for attr in ("put", "put_many"):
                self.wrap(cls, attr, "runner:store_put")
        execute_cell = self.span("runner:execute_cell", work_mod.execute_cell)

        def traced_execute_cell(cell: Any) -> Any:
            try:
                return execute_cell(cell)
            finally:
                if self._in_worker:
                    self._flush_worker()

        functools.update_wrapper(traced_execute_cell, work_mod.execute_cell)
        # The pool pickles the function by name, so both bindings must
        # be the same object.
        self._patch(work_mod, "execute_cell", traced_execute_cell)
        self._patch(pool_mod, "execute_cell", traced_execute_cell)
        os.register_at_fork(after_in_child=self._enter_worker)

        # service, checkpoint, HTTP, bus and the client that drives them.
        self.wrap(service_api, "validate_ndjson", "service:validate")
        for attr in ("submit", "submit_ndjson"):
            self.wrap(ReproService, attr, "service:admit")
        self.wrap(ReproService, "advance_until", "service:advance")
        self.wrap(ReproService, "drain", "service:drain")
        self.wrap(ReproService, "job_status", "service:status")
        self.wrap(ReproService, "metrics_dump", "service:metrics")
        save = self.span("checkpoint:save", CheckpointStore.save)

        def traced_save(store: Any, state: Any) -> Any:
            path = save(store, state)
            log.count("checkpoint.bytes", os.path.getsize(path))
            return path

        self._patch(CheckpointStore, "save", traced_save)
        self.wrap(ServiceRequestHandler, "do_POST", "http:post")
        self.wrap(ServiceRequestHandler, "do_GET", "http:get")
        self.wrap(MetricsBus, "publish", "bus:publish")
        for attr in ("submit_ndjson", "advance", "job_status", "metrics", "drain"):
            self.wrap(ServiceClient, attr, "client:request", remote=True)

    def uninstall(self) -> None:
        self._in_worker = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- worker processes ----------------------------------------------

    def _enter_worker(self) -> None:
        if self._patches:
            self.log.reset()
            self._in_worker = True

    def _flush_worker(self) -> None:
        path = self.spool / f"worker-{os.getpid()}.spans"
        with open(path, "ab") as fh:
            pickle.dump(self.log.snapshot(), fh)
        self.log.reset()

    def collect_spool(self) -> List[Chunk]:
        """Worker span tables flushed so far; the spool is emptied."""
        chunks: List[Chunk] = []
        for path in sorted(self.spool.glob("worker-*.spans")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        chunks.append(Chunk(pickle.load(fh)))
                    except EOFError:
                        break
            path.unlink()
        return chunks


def write_spans(path: Path, chunks: List[Chunk]) -> None:
    """Write every span (name, start, end, parent) as one pickle."""
    with open(path, "wb") as fh:
        pickle.dump([c.snap for c in chunks], fh)
