"""Fault-tolerant parallel cell execution.

:class:`PoolRunner` fans independent cells out across a
``concurrent.futures.ProcessPoolExecutor``:

* results are resolved through the :class:`~repro.runner.cache.ResultCache`
  first (when one is attached) — only missed cells are simulated;
* crashed or timed-out cells are retried with exponential backoff, up to
  ``retries`` extra attempts, without poisoning sibling cells;
* a broken pool (a worker killed by the OS) is rebuilt between rounds;
* ``max_workers=1`` — or any failure to *create* a pool (restricted
  sandboxes without working semaphores, for instance) — degrades
  gracefully to in-process serial execution of the exact same worker
  function, so serial and parallel runs are byte-identical;
* cells that still fail after all retries yield ``status == "failed"``
  outcomes (callers decide whether that is fatal; the sweep/replay
  wrappers raise :class:`~repro.errors.RunnerError`).

Per-cell timeouts are enforced only under the pool: a worker that
exceeds ``timeout`` seconds is abandoned (the pool is recycled) and the
cell is retried.  In-process serial execution cannot interrupt a cell,
so there the timeout is advisory and ignored.

Telemetry: pass ``metrics=`` and/or ``tracer=`` to observe the *runner*
(dispatch counters, cache hit/miss counters, retry/timeout counters,
per-cell wall-clock spans on a real-time clock).  This is runner-level
observability — simulation-level telemetry cannot cross process
boundaries and is handled by the observed-replay escape hatch in
:mod:`repro.runner.work`.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import RunnerError
from repro.runner.cache import ResultCache
from repro.runner.spec import CellSpec, ExperimentSpec
from repro.runner.work import execute_cell
from repro.telemetry.bus import KIND_RUNNER, MetricsBus
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer


@dataclass
class CellOutcome:
    """What happened to one cell.

    ``status`` is ``"ok"`` (simulated or cached result), ``"infeasible"``
    (an explicit capacity hole, also cached) or ``"failed"`` (crashed /
    timed out after all retries — never cached).  ``payload`` is the
    cacheable dict from :func:`~repro.runner.work.execute_cell` for the
    first two, ``None`` for failures.
    """

    cell: CellSpec
    key: str
    status: str
    payload: Optional[Dict[str, Any]] = None
    error: str = ""
    from_cache: bool = False
    attempts: int = 0
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "infeasible")


@dataclass
class RunStats:
    """Counters for the most recent :meth:`PoolRunner.run_cells` call."""

    cells: int = 0
    cache_hits: int = 0
    simulated: int = 0
    infeasible: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    used_pool: bool = False
    pool_fallback: bool = False
    wall_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "cells": self.cells,
            "cache_hits": self.cache_hits,
            "simulated": self.simulated,
            "infeasible": self.infeasible,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "used_pool": self.used_pool,
            "pool_fallback": self.pool_fallback,
            "wall_seconds": self.wall_seconds,
        }

    def describe(self) -> str:
        mode = "pool" if self.used_pool else "serial"
        return (
            f"{self.cells} cells ({self.cache_hits} cached, "
            f"{self.simulated} simulated, {self.failures} failed) "
            f"in {self.wall_seconds:.2f}s [{mode}]"
        )

    def accumulate(self, other: "RunStats") -> None:
        """Fold ``other`` into this (lifetime) record."""
        self.cells += other.cells
        self.cache_hits += other.cache_hits
        self.simulated += other.simulated
        self.infeasible += other.infeasible
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.failures += other.failures
        self.used_pool = self.used_pool or other.used_pool
        self.pool_fallback = self.pool_fallback or other.pool_fallback
        self.wall_seconds += other.wall_seconds


class _WallClock:
    """Monotonic real-time clock a :class:`Tracer` can bind to."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    @property
    def now(self) -> float:
        return time.perf_counter() - self._t0


class PoolRunner:
    """Executes cells across processes, through a cache, with retries."""

    def __init__(
        self,
        max_workers: int = 1,
        cache: Optional[ResultCache] = None,
        *,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff_seconds: float = 0.05,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        bus: Optional[MetricsBus] = None,
    ) -> None:
        if max_workers < 1:
            raise RunnerError(f"max_workers must be >= 1: {max_workers}")
        if retries < 0:
            raise RunnerError(f"retries must be >= 0: {retries}")
        self.max_workers = max_workers
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.metrics = metrics
        self.tracer = tracer
        #: Optional :class:`~repro.telemetry.bus.MetricsBus`: one
        #: ``runner`` frame per resolved cell (sweep completion for the
        #: mission dashboard).  Pure observer — results are unchanged.
        self.bus = bus
        if tracer is not None:
            tracer.bind(_WallClock())
        #: Counters for the most recent :meth:`run_cells` call.
        self.last_stats = RunStats()
        #: Counters accumulated over this runner's whole lifetime.
        self.lifetime_stats = RunStats()
        self._run_clock_t0 = time.perf_counter()

    # -- public API --------------------------------------------------------

    def run_cells(self, cells: Sequence[CellSpec]) -> List[CellOutcome]:
        """Run every cell; outcomes come back in input order.

        Duplicate cells (same content key) are executed once and share
        the outcome.
        """
        t0 = time.perf_counter()
        stats = RunStats(cells=len(cells))
        self.last_stats = stats
        self._run_clock_t0 = t0
        keys = [cell.content_key() for cell in cells]
        outcomes: List[Optional[CellOutcome]] = [None] * len(cells)

        # 1. Resolve through the cache — one bulk read for the whole
        # grid, so a warm re-run costs a single store round trip.
        if self.cache is not None and cells:
            cached = self.cache.get_many(keys)
            for i, (cell, key) in enumerate(zip(cells, keys)):
                payload = cached.get(key)
                if payload is not None:
                    outcomes[i] = CellOutcome(
                        cell=cell,
                        key=key,
                        status=payload["status"],
                        payload=payload,
                        error=payload.get("error", ""),
                        from_cache=True,
                    )
                    stats.cache_hits += 1
                    self._observe(outcomes[i])

        # 2. Simulate the misses (deduplicated by key).
        pending: Dict[str, Tuple[CellSpec, List[int]]] = {}
        for i, (cell, key) in enumerate(zip(cells, keys)):
            if outcomes[i] is None:
                entry = pending.setdefault(key, (cell, []))
                entry[1].append(i)
        if pending:
            computed = self._run_pending(
                [(key, cell) for key, (cell, _) in pending.items()], stats
            )
            writes: List[Tuple[str, Dict[str, Any]]] = []
            for key, outcome in computed.items():
                if self.cache is not None and outcome.ok:
                    assert outcome.payload is not None
                    writes.append((key, outcome.payload))
                for i in pending[key][1]:
                    outcomes[i] = outcome
                self._observe(outcome)
            if self.cache is not None and writes:
                self.cache.put_many(writes)

        stats.wall_seconds = time.perf_counter() - t0
        self.lifetime_stats.accumulate(stats)
        if self.metrics is not None:
            self.metrics.counter("runner.runs").inc()
        result = [o for o in outcomes if o is not None]
        if len(result) != len(cells):  # pragma: no cover - invariant
            raise RunnerError("runner lost track of a cell")
        return result

    def run_experiment(self, experiment: ExperimentSpec) -> List[CellOutcome]:
        """Run a named batch (purely a labelled :meth:`run_cells`)."""
        return self.run_cells(experiment.cells)

    # -- execution ---------------------------------------------------------

    def _run_pending(
        self, pending: List[Tuple[str, CellSpec]], stats: RunStats
    ) -> Dict[str, CellOutcome]:
        use_pool = self.max_workers > 1 and len(pending) > 1
        executor: Optional[ProcessPoolExecutor] = None
        if use_pool:
            try:
                executor = ProcessPoolExecutor(max_workers=self.max_workers)
            except (OSError, ImportError, NotImplementedError):
                # No usable multiprocessing primitives here; degrade.
                stats.pool_fallback = True
                executor = None
        stats.used_pool = executor is not None

        attempts: Dict[str, int] = {key: 0 for key, _ in pending}
        errors: Dict[str, str] = {}
        done: Dict[str, CellOutcome] = {}
        remaining = list(pending)
        round_index = 0
        try:
            while remaining and round_index <= self.retries:
                if round_index:
                    stats.retries += len(remaining)
                    if self.metrics is not None:
                        self.metrics.counter("runner.retries").inc(len(remaining))
                    time.sleep(self.backoff_seconds * (2 ** (round_index - 1)))
                if executor is not None:
                    executor, failed = self._pool_round(
                        executor, remaining, attempts, errors, done, stats
                    )
                else:
                    failed = self._serial_round(
                        remaining, attempts, errors, done, stats
                    )
                remaining = failed
                round_index += 1
        finally:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)

        for key, cell in remaining:
            stats.failures += 1
            done[key] = CellOutcome(
                cell=cell,
                key=key,
                status="failed",
                error=errors.get(key, "unknown failure"),
                attempts=attempts[key],
            )
        return done

    def _serial_round(
        self,
        batch: List[Tuple[str, CellSpec]],
        attempts: Dict[str, int],
        errors: Dict[str, str],
        done: Dict[str, CellOutcome],
        stats: RunStats,
    ) -> List[Tuple[str, CellSpec]]:
        failed: List[Tuple[str, CellSpec]] = []
        for key, cell in batch:
            attempts[key] += 1
            t0 = time.perf_counter()
            try:
                payload = execute_cell(cell)
            except Exception as exc:
                errors[key] = f"{type(exc).__name__}: {exc}"
                failed.append((key, cell))
                continue
            done[key] = self._fresh_outcome(
                cell, key, payload, attempts[key], time.perf_counter() - t0, stats
            )
        return failed

    def _pool_round(
        self,
        executor: ProcessPoolExecutor,
        batch: List[Tuple[str, CellSpec]],
        attempts: Dict[str, int],
        errors: Dict[str, str],
        done: Dict[str, CellOutcome],
        stats: RunStats,
    ) -> Tuple[Optional[ProcessPoolExecutor], List[Tuple[str, CellSpec]]]:
        """One submit-everything round; returns (usable executor, failures)."""
        failed: List[Tuple[str, CellSpec]] = []
        futures: List[Tuple[str, CellSpec, Future, float]] = []
        submitted_at = time.perf_counter()
        broken = False
        for key, cell in batch:
            attempts[key] += 1
            try:
                future = executor.submit(execute_cell, cell)
            except (BrokenExecutor, RuntimeError) as exc:
                errors[key] = f"pool unavailable: {exc}"
                failed.append((key, cell))
                broken = True
                continue
            futures.append((key, cell, future, submitted_at))

        poisoned = False
        for key, cell, future, t0 in futures:
            # Cells run concurrently, so waiting on them in submission
            # order still bounds each cell's wall clock by ~timeout.
            budget: Optional[float] = None
            if self.timeout is not None:
                budget = max(0.0, self.timeout - (time.perf_counter() - t0))
            try:
                payload = future.result(timeout=budget)
            except FutureTimeoutError:
                stats.timeouts += 1
                if self.metrics is not None:
                    self.metrics.counter("runner.timeouts").inc()
                errors[key] = (
                    f"cell timed out after {self.timeout}s: {cell.describe()}"
                )
                failed.append((key, cell))
                # The worker is still grinding; recycle the whole pool so
                # the retry round starts from clean processes.
                poisoned = True
                continue
            except BrokenExecutor as exc:
                errors[key] = f"worker died: {exc}"
                failed.append((key, cell))
                broken = True
                continue
            except Exception as exc:
                errors[key] = f"{type(exc).__name__}: {exc}"
                failed.append((key, cell))
                continue
            done[key] = self._fresh_outcome(
                cell, key, payload, attempts[key], time.perf_counter() - t0, stats
            )

        if poisoned or broken:
            executor.shutdown(wait=False, cancel_futures=True)
            try:
                executor = ProcessPoolExecutor(max_workers=self.max_workers)
            except (OSError, ImportError, NotImplementedError):
                stats.pool_fallback = True
                return None, failed
        return executor, failed

    def _fresh_outcome(
        self,
        cell: CellSpec,
        key: str,
        payload: Dict[str, Any],
        attempts: int,
        wall: float,
        stats: RunStats,
    ) -> CellOutcome:
        stats.simulated += 1
        if payload["status"] == "infeasible":
            stats.infeasible += 1
        return CellOutcome(
            cell=cell,
            key=key,
            status=payload["status"],
            payload=payload,
            error=payload.get("error", ""),
            attempts=attempts,
            wall_seconds=wall,
        )

    # -- telemetry ---------------------------------------------------------

    def _observe(self, outcome: Optional[CellOutcome]) -> None:
        if outcome is None:  # pragma: no cover - defensive
            return
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("runner.cells.dispatched").inc()
            if outcome.from_cache:
                metrics.counter("runner.cache.hits").inc()
            else:
                metrics.counter("runner.cache.misses").inc()
                metrics.counter("runner.cells.simulated").inc()
                metrics.histogram("runner.cell_wall_seconds").observe(
                    outcome.wall_seconds
                )
            if outcome.status == "infeasible":
                metrics.counter("runner.cells.infeasible").inc()
            if outcome.status == "failed":
                metrics.counter("runner.cells.failed").inc()
        tracer = self.tracer
        if tracer is not None:
            args = {
                "key": outcome.key[:12],
                "cell": outcome.cell.describe(),
                "status": outcome.status,
                "from_cache": outcome.from_cache,
                "attempts": outcome.attempts,
            }
            if outcome.from_cache or outcome.status == "failed":
                tracer.instant("cell", "runner", track="runner", args=args)
            else:
                tracer.complete(
                    "cell",
                    "runner",
                    max(0.0, tracer.now - outcome.wall_seconds),
                    track="runner",
                    args=args,
                )
        if self.bus is not None:
            stats = self.last_stats
            self.bus.publish(
                KIND_RUNNER,
                time.perf_counter() - self._run_clock_t0,
                {
                    "cells": stats.cells,
                    "done": stats.cache_hits + stats.simulated + stats.failures,
                    "cache_hits": stats.cache_hits,
                    "simulated": stats.simulated,
                    "infeasible": stats.infeasible,
                    "failures": stats.failures,
                    "retries": stats.retries,
                    "timeouts": stats.timeouts,
                    "store": "sqlite" if self.cache is not None else None,
                },
            )


def raise_on_failure(outcomes: Sequence[CellOutcome]) -> None:
    """Raise :class:`~repro.errors.RunnerError` describing every failed
    cell (no-op when all cells succeeded)."""
    failed = [o for o in outcomes if not o.ok]
    if not failed:
        return
    lines = ", ".join(
        f"{o.cell.describe()} ({o.error})" for o in failed[:3]
    )
    more = f" and {len(failed) - 3} more" if len(failed) > 3 else ""
    raise RunnerError(
        f"{len(failed)} cell(s) failed after retries: {lines}{more}"
    )


__all__ = ["CellOutcome", "PoolRunner", "RunStats", "raise_on_failure"]
