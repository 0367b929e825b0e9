"""The sqlite result store: bulk I/O, recovery, concurrency, migration.

:class:`~repro.runner.cache.ResultCache` keeps every payload in one
WAL-mode sqlite file.  What matters here is what the file gives and what
it must not take away: bulk reads in chunked queries, a corrupt database
rebuilt empty while a merely busy one is left alone, concurrent writers
that lose no committed cell when one of them is killed, and a migration
from the legacy ``ab/<key>.json`` tree that keeps a warm grid warm
(same keys, same payload bytes, ``CODE_SALT`` untouched).
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
import repro.runner.cache as cache_mod
from repro.runner.cache import ResultCache
from repro.runner.spec import CACHE_SCHEMA, canonical_json
from repro.runner.store import (
    SQLITE_STORE_NAME,
    SqliteResultCache,
    migrate_json_tree,
    open_result_store,
    store_report,
)

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62
KEY_C = "cc" + "0" * 62


def ok_payload(value: float = 1.0) -> dict:
    return {"schema": CACHE_SCHEMA, "kind": "probe", "status": "ok",
            "result": {"value": value}, "error": ""}


def hole_payload(error_type: str = "CapacityError") -> dict:
    return {"schema": CACHE_SCHEMA, "kind": "isolated",
            "status": "infeasible", "result": None,
            "error": "too big", "error_type": error_type}


def write_legacy(root: Path, key: str, payload: dict) -> Path:
    """One entry of the legacy sharded-JSON cache, written as it was."""
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True))
    return path


def stored_text(store: ResultCache, key: str) -> str:
    conn = sqlite3.connect(str(store.path))
    try:
        return conn.execute(
            "SELECT payload FROM results WHERE key = ?", (key,)
        ).fetchone()[0]
    finally:
        conn.close()


@pytest.fixture
def store(tmp_path):
    return ResultCache(tmp_path)


class TestRoundTrip:
    def test_put_then_get(self, store):
        payload = ok_payload(3.5)
        store.put(KEY_A, payload)
        assert store.get(KEY_A) == payload
        assert store.stats.hits == 1 and store.stats.writes == 1

    def test_absent_key_is_a_miss(self, store):
        assert store.get(KEY_A) is None
        assert store.stats.misses == 1

    def test_put_overwrites(self, store):
        store.put(KEY_A, ok_payload(1.0))
        store.put(KEY_A, ok_payload(2.0))
        assert store.get(KEY_A)["result"]["value"] == 2.0

    def test_bulk_read_and_write(self, store):
        store.put_many([(KEY_A, ok_payload(1.0)), (KEY_B, ok_payload(2.0))])
        found = store.get_many([KEY_A, KEY_B, KEY_C])
        assert set(found) == {KEY_A, KEY_B}
        assert store.stats.hits == 2 and store.stats.misses == 1

    def test_bulk_read_spans_select_chunks(self, store):
        keys = [f"{i:064x}" for i in range(1200)]
        store.put_many([(k, ok_payload(float(i)))
                        for i, k in enumerate(keys)])
        found = store.get_many(keys)
        assert len(found) == 1200
        assert found[keys[7]]["result"]["value"] == 7.0

    def test_sqlite_name_is_the_same_class(self, tmp_path):
        # Not a subclass: code that patches the store's methods through
        # either name patches the one class.
        assert SqliteResultCache is ResultCache
        opened = open_result_store(root=tmp_path)
        assert type(opened) is ResultCache
        assert opened.path == tmp_path / SQLITE_STORE_NAME


class TestCorruptionRecovery:
    """A broken row is a miss; a broken database is an empty store; a
    busy database is neither."""

    def test_malformed_row_is_a_miss_and_removed(self, store):
        store.put(KEY_A, ok_payload())
        conn = sqlite3.connect(str(store.path))
        conn.execute("UPDATE results SET payload = '{truncat'")
        conn.commit()
        conn.close()
        assert store.get(KEY_A) is None
        assert store.stats.corrupt == 1
        assert len(store) == 0

    def test_schema_mismatch_is_a_miss(self, store):
        store.put(KEY_A, {**ok_payload(), "schema": CACHE_SCHEMA + 99})
        assert store.get(KEY_A) is None
        assert store.stats.corrupt == 1

    def test_garbage_database_file_is_rebuilt_empty(self, tmp_path):
        path = tmp_path / "results.sqlite"
        path.write_text("this is not a sqlite database, not even close")
        store = ResultCache(tmp_path)
        assert store.get_many([KEY_A]) == {}
        store.put(KEY_B, ok_payload(5.0))
        assert store.get(KEY_B)["result"]["value"] == 5.0

    def test_recompute_can_rewrite_after_corruption(self, store):
        store.put(KEY_A, {**ok_payload(), "status": "exploded"})
        assert store.get(KEY_A) is None
        store.put(KEY_A, ok_payload(9.0))
        assert store.get(KEY_A)["result"]["value"] == 9.0

    def test_locked_database_is_left_alone(self, store, monkeypatch):
        monkeypatch.setattr(cache_mod, "_BUSY_TIMEOUT_S", 0.2)
        store.put(KEY_A, ok_payload(1.0))
        holder = sqlite3.connect(str(store.path), isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        try:
            store.put_many([(KEY_B, ok_payload(2.0))])
            assert store.clear() == 0
            store.vacuum()
            assert store.path.exists()
            assert store.stats.writes == 1 and store.stats.corrupt == 0
            assert store.get(KEY_A) == ok_payload(1.0)  # WAL readers still read
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert dict(store.entries()) == {KEY_A: ok_payload(1.0)}
        store.put(KEY_B, ok_payload(2.0))
        assert set(store.get_many([KEY_A, KEY_B])) == {KEY_A, KEY_B}
        assert store.stats.writes == 2


WRITER = """
import sys
from repro.runner.cache import ResultCache
from repro.runner.spec import CACHE_SCHEMA

root, writer, batches, size = sys.argv[1], *map(int, sys.argv[2:])
store = ResultCache(root)
for batch in range(batches):
    before = store.stats.writes
    store.put_many([
        (f"{writer:02x}{batch:06x}{i:056x}",
         {"schema": CACHE_SCHEMA, "kind": "probe", "status": "ok",
          "result": {"writer": writer, "batch": batch, "i": i}, "error": ""})
        for i in range(size)
    ])
    if store.stats.writes > before:  # committed, not given up on a lock
        print(batch, flush=True)
"""


class TestConcurrentWriters:
    BATCH = 100

    def key(self, writer: int, batch: int, i: int) -> str:
        return f"{writer:02x}{batch:06x}{i:056x}"

    def spawn(self, root: Path, writer: int, batches: int) -> subprocess.Popen:
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.Popen(
            [sys.executable, "-c", WRITER, str(root), str(writer),
             str(batches), str(self.BATCH)],
            stdout=subprocess.PIPE, text=True, env=env,
        )

    def test_killed_writer_loses_no_committed_cell(self, tmp_path):
        # Writer 0 would write forever; it is SIGKILLed mid-loop, most
        # likely inside a put_many transaction.  Writers 1 and 2 finish.
        procs = [self.spawn(tmp_path, 0, 10**6)]
        procs += [self.spawn(tmp_path, w, 40) for w in (1, 2)]
        victim = procs[0]
        # A victim that never commits is killed after 60 s, so its
        # stdout ends and the readline below fails instead of hanging.
        deadline = threading.Timer(60, victim.kill)
        deadline.start()
        try:
            reported = {0: [int(victim.stdout.readline()) for _ in range(5)]}
            victim.send_signal(signal.SIGKILL)
            tail, _ = victim.communicate(timeout=60)
            assert victim.returncode == -signal.SIGKILL
            reported[0] += [int(line) for line in tail.split()]
            for writer, proc in enumerate(procs[1:], start=1):
                out, _ = proc.communicate(timeout=120)
                assert proc.returncode == 0
                reported[writer] = [int(line) for line in out.split()]
                assert reported[writer]
        finally:
            deadline.cancel()
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

        store = ResultCache(tmp_path)
        keys = [self.key(w, b, i) for w, batches in reported.items()
                for b in batches for i in range(self.BATCH)]
        found = store.get_many(keys)
        assert len(found) == len(keys)  # no committed cell lost
        assert store.stats.corrupt == 0
        for key, payload in found.items():
            result = payload["result"]
            assert key == self.key(result["writer"], result["batch"], result["i"])
        # The killed writer's transaction is all or nothing: every batch
        # present is whole.
        batches = {}
        for _, payload in store.entries():
            result = payload["result"]
            if result["writer"] == 0:
                batches[result["batch"]] = batches.get(result["batch"], 0) + 1
        assert set(reported[0]) <= set(batches)
        assert set(batches.values()) == {self.BATCH}


class TestByteIdentity:
    """Migrated payloads are the legacy files' payloads, byte for byte."""

    def test_payloads_match_json_backend(self, tmp_path, store):
        legacy = tmp_path / "legacy"
        payloads = {KEY_A: ok_payload(1.25), KEY_B: hole_payload(),
                    KEY_C: ok_payload(0.1 + 0.2)}
        files = {key: write_legacy(legacy, key, p) for key, p in payloads.items()}
        assert migrate_json_tree(legacy, store) == 3
        for key, path in files.items():
            on_disk = json.loads(path.read_bytes())
            assert store.get(key) == on_disk
            assert stored_text(store, key) == canonical_json(on_disk)


class TestMigration:
    def test_migrate_keeps_grid_warm(self, tmp_path, store):
        keys = [f"{i:064x}" for i in range(25)]
        for i, key in enumerate(keys):
            write_legacy(tmp_path, key, ok_payload(float(i)))
        assert migrate_json_tree(tmp_path, store) == 25
        found = store.get_many(keys)
        assert len(found) == 25  # zero misses on a previously warm grid
        assert store.stats.misses == 0
        assert found[keys[3]] == ok_payload(3.0)

    def test_migrate_skips_corrupt_source_files(self, tmp_path, store):
        write_legacy(tmp_path, KEY_A, ok_payload())
        write_legacy(tmp_path, KEY_B, {**ok_payload(), "schema": -1})
        write_legacy(tmp_path, KEY_C, ok_payload()).write_text("{nope")
        write_legacy(tmp_path, "ff" + "0" * 62, ok_payload()).write_bytes(b"\xff\xfe")
        misfiled = tmp_path / "dd" / f"{'ee' + '0' * 62}.json"
        misfiled.parent.mkdir()
        misfiled.write_text(json.dumps(ok_payload()))
        (tmp_path / "dd" / "not-a-key.json").write_text(json.dumps(ok_payload()))
        before = sorted(p.read_bytes() for p in tmp_path.glob("??/*.json"))
        assert migrate_json_tree(tmp_path, store) == 1
        assert store.get(KEY_A) is not None
        assert len(store) == 1
        # The legacy tree is only read.
        assert sorted(p.read_bytes() for p in tmp_path.glob("??/*.json")) == before

    def test_migrate_is_idempotent(self, tmp_path, store):
        write_legacy(tmp_path, KEY_A, ok_payload())
        assert migrate_json_tree(tmp_path, store) == 1
        assert migrate_json_tree(tmp_path, store) == 1
        assert len(store) == 1


class TestMaintenance:
    def test_len_entries_info(self, store):
        store.put_many([(KEY_A, ok_payload()), (KEY_B, hole_payload())])
        assert len(store) == 2
        assert dict(store.entries())[KEY_A] == ok_payload()
        assert [key for key, _ in store.holes()] == [KEY_B]
        info = store.info()
        assert info.entries == 2
        assert info.by_status == {"ok": 1, "infeasible": 1}
        assert info.total_bytes > 0

    def test_clear_removes_everything(self, store):
        store.put_many([(KEY_A, ok_payload()), (KEY_B, ok_payload())])
        assert store.clear() == 2
        assert len(store) == 0

    def test_vacuum_reports_sizes(self, store):
        store.put_many(
            [(f"{i:064x}", ok_payload(float(i))) for i in range(50)]
        )
        store.clear()
        before, after = store.vacuum()
        assert before > 0 and after > 0
        assert after <= before

    def test_store_report_counts_holes_by_error_type(self, store):
        store.put_many([
            (KEY_A, hole_payload("CapacityError")),
            (KEY_B, hole_payload("CapacityError")),
            (KEY_C, hole_payload("ValueError")),
        ])
        report = store_report(store)
        assert report["location"] == str(store.path)
        assert report["holes_by_error_type"] == {
            "CapacityError": 2, "ValueError": 1,
        }


class TestOpenStore:
    def test_default_root_holds_results_sqlite(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "root"))
        store = open_result_store()
        assert store.root == tmp_path / "root"
        assert store.path == tmp_path / "root" / SQLITE_STORE_NAME
