"""Journaled, generational checkpoint persistence for the deployment daemon.

A checkpoint file is an append-only **journal**: one line of compact
JSON per record, each a complete :class:`~repro.core.api.ServiceState`
wire document, so the one validator, :meth:`ServiceState.from_wire`,
checks every record.  The first record is the full state; each later
one carries only the ``accepted`` submissions and ``finished`` ids new
since the record before it, plus the current ``counters`` and ``clock``.

A save appends one record and fsyncs it before returning, so it costs
the size of the batch, not of the whole admission log.  A save
**compacts** instead — the full state to a sibling temp file, fsync,
``os.replace`` over the target — when

* it is the first save of this store instance, so a restarted daemon
  starts a clean file and never appends after a torn tail;
* the state does not extend the journal: a shorter log, a finished id
  gone, or another architecture, register flag or caps;
* the bytes appended since the last compaction have reached the size of
  the compacted record, which keeps the total bytes written within a
  constant factor of the final state.

Each compaction rotates the last ``keep`` **generations** down one slot
(``state.json``, ``state.json.1``, ``state.json.2`` ...).  Load walks
them newest-first and folds the records of the first file whose first
record parses and validates, stopping at the first later record that is
torn, does not parse, fails validation or names another architecture,
register flag or caps: a crash mid-append loses only the torn record.
Only when **every** retained generation is corrupt does load raise the
typed :class:`~repro.errors.CheckpointCorruptError`; restoring from
nothing trustworthy must fail loudly, never resurrect a half-empty
service.  A single indented document, the format before the journal,
is a one-record journal and loads as such.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.core.api import JobSubmission, ServiceState
from repro.errors import CheckpointCorruptError, ServiceError

_WHITESPACE = re.compile(r"[ \t\n\r]*")


def _header(state: ServiceState) -> Tuple[Any, ...]:
    """The fields every record of one journal must agree on."""
    return (
        state.architecture,
        state.register,
        state.max_pending_per_member,
        state.max_total_pending,
    )


def _line(state: ServiceState) -> bytes:
    return (json.dumps(state.to_wire(), separators=(",", ":")) + "\n").encode()


def _write(path: Path, flags: int, data: bytes) -> None:
    """Write all of ``data`` to ``path`` opened with ``flags``, and fsync."""
    fd = os.open(path, os.O_WRONLY | flags, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)


def _records(text: str) -> Iterator[Dict[str, Any]]:
    """Each JSON value in ``text`` in order, up to the first that does
    not parse."""
    decoder = json.JSONDecoder()
    pos = _WHITESPACE.match(text).end()  # type: ignore[union-attr]
    while pos < len(text):
        try:
            record, pos = decoder.raw_decode(text, pos)
        except json.JSONDecodeError:
            return
        yield record
        pos = _WHITESPACE.match(text, pos).end()  # type: ignore[union-attr]


def _fold(text: str) -> ServiceState:
    """The state a journal describes (raises when its first record is
    bad)."""
    records = _records(text)
    state = ServiceState.from_wire(next(records, None))  # type: ignore[arg-type]
    for payload in records:
        try:
            delta = ServiceState.from_wire(payload)
        except ServiceError:
            break
        if _header(delta) != _header(state):
            break
        state.accepted += delta.accepted
        state.finished += delta.finished
        state.clock = delta.clock
        state.counters = delta.counters
    order = {s.job_id: i for i, s in enumerate(state.accepted)}
    state.finished.sort(key=lambda job_id: order.get(job_id, len(order)))
    return state


class CheckpointStore:
    """One checkpoint lineage: journaled save, compaction with rotation,
    validated load."""

    def __init__(self, path: Union[str, Path], keep: int = 3) -> None:
        if keep < 1:
            raise ServiceError(f"keep must be >= 1, got {keep}")
        self.path = Path(path)
        self.keep = keep
        # What the newest file holds, as written by this instance; a
        # ``None`` header means the next save compacts.
        self._header: Optional[Tuple[Any, ...]] = None
        self._last: Optional[JobSubmission] = None
        self._count = 0
        self._finished: Set[str] = set()
        self._room = 0  # bytes left to append before compacting

    def exists(self) -> bool:
        return self.path.exists()

    def generations(self) -> List[Path]:
        """Snapshot paths newest-first (``path``, ``path.1``, ...)."""
        return [self.path] + [
            self.path.with_name(f"{self.path.name}.{i}")
            for i in range(1, self.keep)
        ]

    def _rotate(self) -> None:
        """Shift existing snapshots down one generation slot (the oldest
        falls off the end)."""
        paths = self.generations()
        for older, newer in zip(reversed(paths), reversed(paths[:-1])):
            if newer.exists():
                os.replace(newer, older)

    def _delta(self, state: ServiceState) -> Optional[ServiceState]:
        """The record that extends the journal to ``state``, or ``None``
        when this save must compact."""
        count = self._count
        if (
            self._header != _header(state)
            or self._room <= 0
            or len(state.accepted) < count
            or (count and state.accepted[count - 1] != self._last)
        ):
            return None
        finished = [j for j in state.finished if j not in self._finished]
        if len(state.finished) - len(finished) != len(self._finished):
            return None  # a finished id went missing
        return dataclasses.replace(
            state, accepted=state.accepted[count:], finished=finished
        )

    def save(self, state: ServiceState) -> Path:
        """Append ``state`` to the journal, or compact; either way the
        record is fsynced before this returns."""
        delta = self._delta(state)
        self._header = None  # until the write lands, the tail is unknown
        if delta is None:
            payload = _line(state)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._rotate()
            tmp = self.path.with_name(self.path.name + ".tmp")
            _write(tmp, os.O_CREAT | os.O_TRUNC, payload)
            os.replace(tmp, self.path)
            self._room = len(payload)
            self._finished = set(state.finished)
        else:
            payload = _line(delta)
            _write(self.path, os.O_APPEND, payload)
            self._room -= len(payload)
            self._finished.update(delta.finished)
        self._count = len(state.accepted)
        self._last = state.accepted[-1] if state.accepted else None
        self._header = _header(state)
        return self.path

    def load(self) -> Optional[ServiceState]:
        """The newest intact state, or ``None`` when no file exists.

        A generation whose first record is truncated/corrupt/invalid
        falls back to the next generation.  Raises
        :class:`CheckpointCorruptError` only when files exist but *none*
        of them has a valid first record.
        """
        errors: List[str] = []
        found_any = False
        for candidate in self.generations():
            if not candidate.exists():
                continue
            found_any = True
            try:
                return _fold(candidate.read_text())
            except (OSError, ValueError, ServiceError) as exc:
                errors.append(f"{candidate}: {exc}")
        if not found_any:
            return None
        raise CheckpointCorruptError(
            "every retained checkpoint snapshot is corrupt:\n  "
            + "\n  ".join(errors)
        )


__all__ = ["CheckpointStore"]
