"""Experiment cells: picklable, content-addressable simulation descriptions.

A :class:`CellSpec` is everything one simulation needs — architecture,
application profile, input size, calibration, seed (or, for a trace
replay, the trace parameters) — as a frozen dataclass of frozen
dataclasses, so it pickles across process boundaries and serialises
canonically.  Its :meth:`~CellSpec.content_key` is a SHA-256 over that
canonical form plus a code-version salt: two cells with the same key are
guaranteed to describe the same simulation under the same model, which
is what lets :class:`~repro.runner.cache.ResultCache` reuse results
safely.

An :class:`ExperimentSpec` is a named, ordered collection of cells (one
sweep grid, one replay trio) with a derived key of its own.

A warm resolve costs one store read, not a rehash: each cell computes
its key once and keeps it on the instance, and each frozen part
(architecture, app, calibration, fault plan) keeps its flattened form
on its own instance, so the parts a sweep shares are flattened once.
The memos are keyed by identity, not by value — two parts that compare
equal may still serialise differently (``replication=2`` vs ``2.0``) —
and the bytes hashed are those of ``canonical_payload()``, so every key
is the one the unmemoized formula gives.

Invalidation rules
------------------

The key covers *all* simulation inputs by value — the full architecture
description (machines, counts, storage), the full calibration vector,
the full app profile, the seed — so any change to any of them is a new
key, automatically.  What the key cannot see is the *code* of the model
itself; :data:`CODE_SALT` stands in for it and must be bumped whenever a
change to the simulator alters results (see docs/RUNNER.md).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.apps.base import AppProfile
from repro.core.architectures import ArchitectureSpec
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.units import parse_size

#: Version of the cached-payload schema (cache files carry it).
CACHE_SCHEMA = 1

#: Stand-in for the simulator's code version.  Bump the date-tag whenever
#: a model change alters simulation results; every cached result keyed
#: under the old salt then misses and is recomputed.  (2026.08f: elastic
#: membership (repro.elastic) landed — replay payloads gained
#: decommission/join/healthy-capacity fields, so pre-elastic entries
#: must not be reused.)  Removing a CellSpec field changes every key
#: without a salt bump: the separate scale-plan field left when scale
#: events joined ``fault_plan``, so every key changed once while results
#: stayed the same — a warm cache re-simulates once.
CODE_SALT = f"repro-cells-v{CACHE_SCHEMA}-2026.08f"

#: Cell kinds understood by :mod:`repro.runner.work`.
KIND_ISOLATED = "isolated"
KIND_REPLAY = "replay"
#: Test-only kind for fault-injection tests (see work.py).
KIND_PROBE = "probe"
KINDS = (KIND_ISOLATED, KIND_REPLAY, KIND_PROBE)


#: The encoder :func:`json.dumps` would build on every call, built once.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return _CANONICAL.encode(value)


#: Instance-``__dict__`` slots of the two memos: a frozen part's
#: flattened form, and a cell's content key.  Neither is a field, so
#: neither reaches ``==``, ``hash``, ``repr`` or ``dataclasses.replace``.
_FLAT = "_flat_form"
_KEY = "_content_key"
#: Immutable leaves: ``asdict`` deep-copies them, :func:`_flat` keeps them.
_LEAVES = frozenset((str, int, float, bool, type(None)))


def _flat(value: Any) -> Any:
    """:func:`dataclasses.asdict` for the content key, without the copies.

    Gives the same canonical JSON as ``asdict``.  A frozen dataclass
    keeps its form on its own instance (see the module docstring); the
    forms are shared between cells, so none may leave this module.
    """
    cls = type(value)
    if cls in _LEAVES:
        return value
    if hasattr(cls, "__dataclass_fields__"):
        state = getattr(value, "__dict__", None)
        if state is None or not cls.__dataclass_params__.frozen:
            return _fields(value)
        form = state.get(_FLAT)
        if form is None:
            form = state[_FLAT] = _fields(value)
        return form
    if isinstance(value, (list, tuple)):
        return [_flat(item) for item in value]
    return value


def _fields(value: Any) -> Dict[str, Any]:
    return {name: _flat(getattr(value, name)) for name in _names(type(value))}


@functools.lru_cache(maxsize=None)
def _names(cls: type) -> Tuple[str, ...]:
    """A dataclass's field names, sorted, so that the encoder's key sort
    finds every form already in order."""
    return tuple(sorted(f.name for f in fields(cls)))


@dataclass(frozen=True)
class CellSpec:
    """One simulation cell, fully described by value.

    ``kind == "isolated"`` runs one job alone on a fresh deployment (the
    Section III measurement cell): ``architecture`` + ``app`` +
    ``input_bytes`` (+ ``seed`` for the task-jitter stream).

    ``kind == "replay"`` replays the FB-2009 synthesized trace on a
    fresh deployment (the Section V evaluation cell): ``architecture`` +
    ``num_jobs`` + ``seed`` + ``shrink_factor`` (+ optional
    ``duration``, defaulting to the rate-preserving window).

    ``kind == "probe"`` exists only for the runner's own fault-injection
    tests; it never touches the simulator.
    """

    kind: str
    architecture: Optional[ArchitectureSpec] = None
    calibration: Calibration = DEFAULT_CALIBRATION
    #: Isolated cells carry the full app profile (not just its name), so
    #: custom profiles work in workers and profile edits miss the cache.
    app: Optional[AppProfile] = None
    input_bytes: float = 0.0
    #: Per-cell RNG seed for the task-jitter streams.  0 keeps the
    #: legacy job ids (and therefore legacy jitter streams) so default
    #: results are unchanged; any other value derives fresh streams.
    seed: int = 0
    register_dataset: bool = True
    # -- replay-only fields ------------------------------------------------
    num_jobs: int = 0
    shrink_factor: float = 5.0
    duration: Optional[float] = None
    #: Event schedule — faults and elastic membership changes — injected
    #: into the cell's deployment, isolated and replay cells alike.  Part
    #: of the content key (the full plan hashes into it), so a faulted or
    #: elastic run and a healthy run of the same cell never collide in
    #: the cache — nor do two different schedules.  An *empty* plan is
    #: normalised to None, keeping "no events" a single cache identity.
    fault_plan: Optional[FaultPlan] = None
    #: Attach an internal tracer and store a compact profiler summary
    #: (bucket attribution — see :mod:`repro.profiler`) in the payload.
    #: Part of the content key: profiled and bare payloads differ, so
    #: they must not collide in the cache.  Simulated *results* are
    #: identical either way (telemetry is a pure observer).
    profile: bool = False
    # -- probe-only field --------------------------------------------------
    probe: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown cell kind {self.kind!r}")
        if self.fault_plan is not None and self.fault_plan.is_empty:
            object.__setattr__(self, "fault_plan", None)
        if self.kind == KIND_ISOLATED:
            if self.architecture is None or self.app is None:
                raise ConfigurationError(
                    "isolated cells need an architecture and an app profile"
                )
            if self.input_bytes <= 0:
                raise ConfigurationError("isolated cells need input_bytes > 0")
        if self.kind == KIND_REPLAY:
            if self.architecture is None:
                raise ConfigurationError("replay cells need an architecture")
            if self.num_jobs <= 0:
                raise ConfigurationError("replay cells need num_jobs > 0")

    # -- identity ----------------------------------------------------------

    def canonical_payload(self) -> Dict[str, Any]:
        """The cell as plain JSON-able data (dataclasses flattened).

        A fresh copy: :meth:`content_key` hashes these same bytes but
        builds them from memoized part forms.
        """
        return {"salt": CODE_SALT, "cell": asdict(self)}

    def content_key(self) -> str:
        """Stable SHA-256 content hash of the cell plus the code salt.

        Computed once per instance; later calls return the kept key.
        """
        key = self.__dict__.get(_KEY)
        if key is None:
            payload = {"salt": CODE_SALT, "cell": _fields(self)}
            key = self.__dict__[_KEY] = hashlib.sha256(
                canonical_json(payload).encode("utf-8")
            ).hexdigest()
        return key

    def describe(self) -> str:
        arch = self.architecture.name if self.architecture else "-"
        if self.kind == KIND_ISOLATED:
            assert self.app is not None
            return f"{self.app.name}@{int(self.input_bytes)}B on {arch}"
        if self.kind == KIND_REPLAY:
            events = self.fault_plan.events if self.fault_plan else ()
            scales = sum(event.is_scale for event in events)
            counts = "".join(
                f", {count} {label}"
                for count, label in (
                    (len(events) - scales, "faults"), (scales, "scale events")
                )
                if count
            )
            return (
                f"replay[{self.num_jobs} jobs, seed {self.seed}"
                f"{counts}] on {arch}"
            )
        return f"probe[{self.probe}]"


def isolated_cell(
    architecture: ArchitectureSpec,
    app: AppProfile,
    input_size: float | str,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    register_dataset: bool = True,
    profile: bool = False,
) -> CellSpec:
    """One Section III measurement cell (accepts "32GB"-style sizes)."""
    return CellSpec(
        kind=KIND_ISOLATED,
        architecture=architecture,
        calibration=calibration,
        app=app,
        input_bytes=parse_size(input_size),
        seed=seed,
        register_dataset=register_dataset,
        profile=profile,
    )


def replay_cell(
    architecture: ArchitectureSpec,
    num_jobs: int,
    seed: int = 2009,
    shrink_factor: float = 5.0,
    calibration: Calibration = DEFAULT_CALIBRATION,
    duration: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    profile: bool = False,
) -> CellSpec:
    """One Section V trace-replay cell (optionally under an event plan)."""
    return CellSpec(
        kind=KIND_REPLAY,
        architecture=architecture,
        calibration=calibration,
        seed=seed,
        num_jobs=num_jobs,
        shrink_factor=shrink_factor,
        duration=duration,
        fault_plan=fault_plan,
        profile=profile,
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, ordered batch of cells (one grid, one replay trio)."""

    name: str
    cells: Tuple[CellSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("an experiment needs a name")

    def content_key(self) -> str:
        payload = {
            "salt": CODE_SALT,
            "name": self.name,
            "cells": [c.content_key() for c in self.cells],
        }
        return hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()

    def __len__(self) -> int:
        return len(self.cells)


def sweep_experiment(
    architectures: Sequence[ArchitectureSpec],
    app: AppProfile,
    sizes: Sequence[float | str],
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    profile: bool = False,
) -> ExperimentSpec:
    """The full measurement grid for one application, row-major: all
    sizes of the first architecture, then the next."""
    cells = tuple(
        isolated_cell(spec, app, size, calibration, seed, profile=profile)
        for spec in architectures
        for size in sizes
    )
    return ExperimentSpec(name=f"sweep:{app.name}", cells=cells)


__all__ = [
    "CACHE_SCHEMA",
    "CODE_SALT",
    "CellSpec",
    "ExperimentSpec",
    "KIND_ISOLATED",
    "KIND_PROBE",
    "KIND_REPLAY",
    "canonical_json",
    "isolated_cell",
    "replay_cell",
    "sweep_experiment",
]
