"""Result-cache semantics: hit, miss, corruption-recovery, maintenance."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.runner.cache import ResultCache, default_cache_root
from repro.runner.spec import CACHE_SCHEMA

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62


def ok_payload(value: float = 1.0) -> dict:
    return {"schema": CACHE_SCHEMA, "kind": "probe", "status": "ok",
            "result": {"value": value}, "error": ""}


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def write_row(cache: ResultCache, key: str, text: str) -> None:
    """Store ``text`` as ``key``'s payload behind the cache's back."""
    cache.put(key, ok_payload())
    conn = sqlite3.connect(str(cache.path))
    with conn:
        conn.execute("UPDATE results SET payload = ? WHERE key = ?", (text, key))
    conn.close()


class TestRoundTrip:
    def test_put_then_get(self, cache):
        payload = ok_payload(3.5)
        cache.put(KEY_A, payload)
        assert cache.get(KEY_A) == payload
        assert cache.stats.hits == 1 and cache.stats.writes == 1

    def test_absent_key_is_a_miss(self, cache):
        assert cache.get(KEY_A) is None
        assert cache.stats.misses == 1

    def test_put_overwrites(self, cache):
        cache.put(KEY_A, ok_payload(1.0))
        cache.put(KEY_A, ok_payload(2.0))
        assert cache.get(KEY_A)["result"]["value"] == 2.0

    def test_keys_are_validated(self, cache):
        with pytest.raises(ValueError, match="content key"):
            cache.get("../../etc/passwd")
        with pytest.raises(ValueError, match="content key"):
            cache.get("abc123")  # hex, but shorter than 8 characters
        with pytest.raises(ValueError, match="content key"):
            cache.put("ABCDEF0123", ok_payload())
        assert len(cache) == 0

    def test_infeasible_holes_are_cacheable(self, cache):
        hole = {"schema": CACHE_SCHEMA, "kind": "isolated",
                "status": "infeasible", "result": None, "error": "too big"}
        cache.put(KEY_A, hole)
        assert cache.get(KEY_A) == hole


class TestCorruptionRecovery:
    """A broken entry is a miss (and is discarded), never an error."""

    def test_truncated_file_is_a_miss_and_removed(self, cache):
        cache.put_many([(f"{i:064x}", ok_payload(float(i))) for i in range(50)])
        cache.close()
        size = cache.path.stat().st_size
        with open(cache.path, "r+b") as handle:
            handle.truncate(size // 2)
        assert cache.get(KEY_A) is None
        assert cache.stats.corrupt == 1
        assert not cache.path.exists()
        cache.put(KEY_A, ok_payload(2.0))
        assert cache.get(KEY_A)["result"]["value"] == 2.0

    def test_non_json_garbage_is_a_miss(self, cache):
        write_row(cache, KEY_A, "\x00\xff not json")
        assert cache.get(KEY_A) is None
        assert cache.stats.corrupt == 1

    def test_schema_mismatch_is_a_miss(self, cache):
        payload = ok_payload()
        payload["schema"] = CACHE_SCHEMA + 1
        write_row(cache, KEY_A, json.dumps(payload))
        assert cache.get(KEY_A) is None

    def test_unknown_status_is_a_miss(self, cache):
        payload = ok_payload()
        payload["status"] = "maybe"
        write_row(cache, KEY_A, json.dumps(payload))
        assert cache.get(KEY_A) is None

    def test_recompute_can_rewrite_after_corruption(self, cache):
        write_row(cache, KEY_A, "garbage")
        assert cache.get(KEY_A) is None
        cache.put(KEY_A, ok_payload(2.0))
        assert cache.get(KEY_A)["result"]["value"] == 2.0


class TestMaintenance:
    def test_len_entries_info(self, cache):
        cache.put(KEY_A, ok_payload(1.0))
        cache.put(KEY_B, ok_payload(2.0))
        assert len(cache) == 2
        assert {k for k, _ in cache.entries()} == {KEY_A, KEY_B}
        info = cache.info()
        assert info.entries == 2
        assert info.total_bytes > 0
        assert info.by_kind == {"probe": 2}
        assert info.by_status == {"ok": 2}

    def test_clear_removes_everything(self, cache):
        cache.put(KEY_A, ok_payload())
        cache.put(KEY_B, ok_payload())
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(KEY_A) is None

    def test_empty_cache_inventory(self, cache):
        assert len(cache) == 0
        assert cache.info().entries == 0
        assert cache.clear() == 0

    def test_default_root_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_root() == tmp_path / "elsewhere"
        assert ResultCache().path == tmp_path / "elsewhere" / "results.sqlite"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert str(default_cache_root()) == ".repro-cache"
