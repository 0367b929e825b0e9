"""Opening, reporting on and importing into the result store.

:class:`~repro.runner.cache.ResultCache` is the runner's only result
store.  This module holds what sits around it:

* :func:`open_result_store` — the store under a cache root;
* :func:`store_report` — the ``repro cache stats`` payload;
* :func:`migrate_json_tree` — the one-shot importer behind
  ``repro cache migrate`` for a cache written before the store moved to
  sqlite, when every payload was its own ``<root>/ab/<key>.json`` file.
  It imports byte-identically (same keys, same canonical payloads), so
  ``CODE_SALT`` is untouched and a grid that was warm before the upgrade
  is warm after it.

``SqliteResultCache`` is the store's earlier name, bound to the same
class object.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.runner.cache import (
    SQLITE_STORE_NAME,
    ResultCache,
    is_content_key,
)

SqliteResultCache = ResultCache

#: Legacy entries imported per transaction.
_MIGRATE_BATCH = 1000


def open_result_store(root: Optional[Union[Path, str]] = None) -> ResultCache:
    """The result store under ``root`` (default: ``$REPRO_CACHE_DIR`` or
    ``./.repro-cache``)."""
    return ResultCache(root)


def migrate_json_tree(root: Union[Path, str], target: ResultCache) -> int:
    """Import a legacy ``<root>/ab/<key>.json`` tree into ``target``.

    The tree is only read.  Each file is validated like a stored row: a
    name that is not a content key, unreadable JSON or a payload with the
    wrong schema is skipped.  Re-running is idempotent (last write wins
    with the same bytes).  Returns the number of entries written.
    """
    before = target.stats.writes
    pending: List[Tuple[str, Dict[str, Any]]] = []
    for path in sorted(Path(root).glob("??/*.json")):
        key = path.stem
        if not is_content_key(key) or path.parent.name != key[:2]:
            continue
        try:
            payload = ResultCache._decode(path.read_text())
        except (OSError, UnicodeDecodeError):
            continue
        if payload is not None:
            pending.append((key, payload))
        if len(pending) >= _MIGRATE_BATCH:
            target.put_many(pending)
            pending = []
    target.put_many(pending)
    return target.stats.writes - before


def store_report(store: ResultCache) -> Dict[str, Any]:
    """The ``repro cache stats`` payload: entry counts by kind and
    status, hole counts by ``error_type``, bytes on disk."""
    info = store.info()
    holes_by_error: Dict[str, int] = {}
    for _, payload in store.holes():
        error_type = str(payload.get("error_type", "?") or "?")
        holes_by_error[error_type] = holes_by_error.get(error_type, 0) + 1
    return {
        "location": info.root,
        "entries": info.entries,
        "total_bytes": info.total_bytes,
        "by_kind": dict(sorted(info.by_kind.items())),
        "by_status": dict(sorted(info.by_status.items())),
        "holes_by_error_type": dict(sorted(holes_by_error.items())),
    }


__all__ = [
    "SQLITE_STORE_NAME",
    "SqliteResultCache",
    "migrate_json_tree",
    "open_result_store",
    "store_report",
]
