"""Content-addressed on-disk result store.

Every cell payload lives in one WAL-mode sqlite database under the cache
root (``$REPRO_CACHE_DIR``, else ``./.repro-cache``)::

    .repro-cache/
      results.sqlite        # one row per content key
      results.sqlite-wal    # write-ahead log while a connection is open

A payload is exactly what :func:`repro.runner.work.execute_cell`
returned — including ``infeasible`` holes, so a sweep that hit the
up-HDFS capacity ceiling does not re-attempt the infeasible cells on the
next run.  It is stored as canonical JSON bytes under its unchanged
content key.  Keys already hash every simulation input plus the code
salt (see :mod:`repro.runner.spec`), so the store itself never has to
reason about invalidation: a stale entry is simply never looked up
again.

Robustness — never an error, always a miss:

* a malformed, truncated or schema-mismatched row is a miss; the row is
  deleted so the recompute can rewrite it;
* a database file that is corrupt or not a database at all
  (``SQLITE_CORRUPT`` / ``SQLITE_NOTADB``, which Python raises as a bare
  :class:`sqlite3.DatabaseError`) is discarded and rebuilt empty;
* any other sqlite error — a busy or locked database above all — leaves
  the file alone: the read misses, the write is rolled back and not
  counted in ``stats.writes``.

Each ``put_many`` is one transaction, so a process killed mid-write
loses only its uncommitted batch, and WAL journaling lets readers work
while another process writes.
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.runner.spec import CACHE_SCHEMA, canonical_json

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Database filename inside the cache root.
SQLITE_STORE_NAME = "results.sqlite"

#: Seconds a write waits on another process's lock before giving up.
_BUSY_TIMEOUT_S = 5.0

#: Keys per ``SELECT ... IN`` chunk (SQLite's default variable cap is
#: 999; stay comfortably below it).
_SELECT_CHUNK = 500

_KEY = re.compile(r"[0-9a-f]{8,}")


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``./.repro-cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def is_content_key(key: str) -> bool:
    """True for a lowercase hex string of at least 8 characters."""
    return _KEY.fullmatch(key) is not None


def _checked(key: str) -> str:
    if not is_content_key(key):
        raise ValueError(f"not a content key: {key!r}")
    return key


@dataclass
class CacheStats:
    """Running totals for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }


@dataclass
class CacheInfo:
    """Inventory snapshot for ``repro cache`` (see :meth:`ResultCache.info`)."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    by_status: Dict[str, int] = field(default_factory=dict)


class ResultCache:
    """Content-addressed result store in ``<root>/results.sqlite``."""

    def __init__(self, root: Optional[Union[Path, str]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.path = self.root / SQLITE_STORE_NAME
        self.stats = CacheStats()
        self._conn: Optional[sqlite3.Connection] = None

    # -- connection management --------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self._conn is not None:
            return self._conn
        self.root.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=_BUSY_TIMEOUT_S)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " key TEXT PRIMARY KEY,"
                " kind TEXT NOT NULL,"
                " status TEXT NOT NULL,"
                " error_type TEXT NOT NULL DEFAULT '',"
                " payload TEXT NOT NULL)"
            )
            conn.commit()
        except sqlite3.Error:
            conn.close()
            raise
        self._conn = conn
        return conn

    def _recover(self, exc: sqlite3.Error) -> None:
        """Discard the database file if ``exc`` says it is corrupt or not
        a database; leave it alone for any other error (busy, locked,
        read-only, disk full), which a later call may not hit."""
        if type(exc) is not sqlite3.DatabaseError:
            return
        self.stats.corrupt += 1
        self.close()
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except OSError:
                pass

    def close(self) -> None:
        """Close the connection (reopened lazily on next use)."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - defensive
                pass
            self._conn = None

    # -- read --------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or None (miss)."""
        return self.get_many([key]).get(key)

    def get_many(self, keys: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Bulk read: ``{key: payload}`` for every hit among ``keys``, in a
        handful of chunked ``SELECT``s.  Misses are simply absent."""
        wanted = [_checked(key) for key in dict.fromkeys(keys)]
        found: Dict[str, Dict[str, Any]] = {}
        bad: List[str] = []
        try:
            conn = self._connect()
            for start in range(0, len(wanted), _SELECT_CHUNK):
                chunk = wanted[start:start + _SELECT_CHUNK]
                marks = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT key, payload FROM results WHERE key IN ({marks})",
                    chunk,
                ).fetchall()
                for key, text in rows:
                    payload = self._decode(text)
                    if payload is None:
                        bad.append(key)
                    else:
                        found[key] = payload
            if bad:
                with conn:
                    conn.executemany(
                        "DELETE FROM results WHERE key = ?", [(k,) for k in bad]
                    )
        except sqlite3.Error as exc:
            self._recover(exc)
            self.stats.misses += len(wanted)
            return {}
        self.stats.hits += len(found)
        self.stats.corrupt += len(bad)
        self.stats.misses += len(wanted) - len(found)
        return found

    @staticmethod
    def _decode(text: str) -> Optional[Dict[str, Any]]:
        try:
            payload = json.loads(text)
        except ValueError:
            return None
        return payload if ResultCache._valid(payload) else None

    @staticmethod
    def _valid(payload: Any) -> bool:
        return (
            isinstance(payload, dict)
            and payload.get("schema") == CACHE_SCHEMA
            and payload.get("status") in ("ok", "infeasible")
            and "result" in payload
            and "kind" in payload
        )

    # -- write -------------------------------------------------------------

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (last write wins)."""
        self.put_many([(key, payload)])

    def put_many(self, items: Iterable[Tuple[str, Dict[str, Any]]]) -> None:
        """Bulk write in one transaction.  A store that cannot persist
        behaves like no cache at all: nothing raises, and the rows are
        not counted in ``stats.writes``."""
        rows = [
            (
                _checked(key),
                str(payload.get("kind", "?")),
                str(payload.get("status", "?")),
                str(payload.get("error_type", "") or ""),
                canonical_json(payload),
            )
            for key, payload in items
        ]
        if not rows:
            return
        try:
            conn = self._connect()
            with conn:
                conn.executemany(
                    "INSERT OR REPLACE INTO results"
                    " (key, kind, status, error_type, payload)"
                    " VALUES (?, ?, ?, ?, ?)",
                    rows,
                )
        except sqlite3.Error as exc:
            self._recover(exc)
            return
        self.stats.writes += len(rows)

    # -- inspection / maintenance -----------------------------------------

    def entries(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Iterate ``(key, payload)`` over every readable entry."""
        try:
            rows = self._connect().execute(
                "SELECT key, payload FROM results ORDER BY key"
            ).fetchall()
        except sqlite3.Error:
            return
        for key, text in rows:
            payload = self._decode(text)
            if payload is not None:
                yield key, payload

    def holes(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Iterate ``(key, payload)`` over the infeasible entries.

        Each payload records *why* the cell was infeasible
        (``error_type`` + ``error``) and which cell it was (``cell``) —
        written by :func:`repro.runner.work.execute_cell`; see
        ``repro cache`` for the human-readable report.
        """
        for key, payload in self.entries():
            if payload.get("status") == "infeasible":
                yield key, payload

    def __len__(self) -> int:
        try:
            row = self._connect().execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
        except sqlite3.Error:
            return 0
        return int(row[0])

    def size_bytes(self) -> int:
        """Bytes on disk (main database file plus any WAL)."""
        total = 0
        for suffix in ("", "-wal"):
            try:
                total += os.stat(f"{self.path}{suffix}").st_size
            except OSError:
                pass
        return total

    def info(self) -> CacheInfo:
        """Inventory: entry count, bytes on disk, kind/status breakdown."""
        info = CacheInfo(root=str(self.path))
        try:
            rows = self._connect().execute(
                "SELECT kind, status, COUNT(*) FROM results"
                " GROUP BY kind, status"
            ).fetchall()
        except sqlite3.Error:
            return info
        for kind, status, count in rows:
            info.entries += int(count)
            info.by_kind[kind] = info.by_kind.get(kind, 0) + int(count)
            info.by_status[status] = info.by_status.get(status, 0) + int(count)
        info.total_bytes = self.size_bytes()
        return info

    def clear(self) -> int:
        """Delete every entry; returns how many rows were removed."""
        try:
            conn = self._connect()
            with conn:
                removed = conn.execute("DELETE FROM results").rowcount
        except sqlite3.Error as exc:
            self._recover(exc)
            return 0
        return int(removed)

    def vacuum(self) -> Tuple[int, int]:
        """Compact the database; returns ``(bytes_before, bytes_after)``."""
        before = self.size_bytes()
        try:
            conn = self._connect()
            conn.execute("VACUUM")
            # VACUUM writes through the WAL; truncate it afterwards so
            # the reported size is the compacted main file alone.
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error as exc:
            self._recover(exc)
        return before, self.size_bytes()


__all__ = [
    "CacheInfo",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "SQLITE_STORE_NAME",
    "default_cache_root",
    "is_content_key",
]
