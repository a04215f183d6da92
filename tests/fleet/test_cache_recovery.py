"""ResultCache resilience: torn, empty, and vanishing entries."""

import json
import os
import pathlib
import re

import pytest

from repro.fleet import ResultCache, run_fleet


PAYLOAD = {"spec": {"session_id": 0}, "runs": [{"capture_us": 1.0}]}


def make_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = "ab" + "0" * 62
    return cache, key


def test_cache_path_that_is_a_file_is_rejected(tmp_path):
    path = tmp_path / "cache"
    path.write_text("not a directory")
    with pytest.raises(
        ValueError,
        match=re.escape(f"cache path exists and is not a directory: {path}"),
    ):
        ResultCache(path)
    assert path.read_text() == "not a directory"


def test_torn_json_entry_is_a_miss_and_gets_removed(tmp_path):
    cache, key = make_cache(tmp_path)
    path = cache.put(key, PAYLOAD)
    # Simulate a crash mid-write that somehow bypassed the atomic
    # replace (e.g. a partial copy from another machine).
    path.write_text(json.dumps(PAYLOAD)[:17])
    assert cache.get(key) is None
    assert cache.misses == 1
    assert not path.exists(), "corrupt entry should be evicted"
    # The slot is rewritable and healthy afterwards.
    cache.put(key, PAYLOAD)
    assert cache.get(key) == PAYLOAD


def test_empty_file_entry_is_a_miss(tmp_path):
    cache, key = make_cache(tmp_path)
    path = cache.put(key, PAYLOAD)
    path.write_text("")
    assert cache.get(key) is None
    assert not path.exists()


def test_entry_deleted_between_get_and_put_is_harmless(tmp_path):
    cache, key = make_cache(tmp_path)
    cache.put(key, PAYLOAD)
    path = cache._path(key)
    # A concurrent cleaner removes the entry after this run decided the
    # key exists: get() must degrade to a miss, and put() must recreate
    # the sharded directory if that vanished too.
    path.unlink()
    assert cache.get(key) is None
    path.parent.rmdir()
    cache.put(key, PAYLOAD)
    assert cache.get(key) == PAYLOAD


def test_failed_put_raises_and_leaves_no_temp_file(tmp_path):
    cache, key = make_cache(tmp_path)
    # json.dump writes part of the entry before it meets the object it
    # cannot encode; the partial temp file must not survive.
    with pytest.raises(TypeError):
        cache.put(key, {"spec": {"session_id": 0}, "runs": [object()]})
    assert list(cache.cache_dir.rglob("*.tmp")) == []
    assert cache.get(key) is None


def test_corrupt_entry_that_cannot_be_evicted_is_still_a_miss(
    tmp_path, monkeypatch,
):
    cache, key = make_cache(tmp_path)
    path = cache.put(key, PAYLOAD)
    path.write_text("")

    def refuse(self, missing_ok=False):
        raise PermissionError(f"read-only cache: {self}")

    monkeypatch.setattr(pathlib.Path, "unlink", refuse)
    assert cache.get(key) is None
    assert (cache.hits, cache.misses) == (0, 1)
    assert path.exists()


def test_failed_put_whose_cleanup_fails_raises_the_write_error(
    tmp_path, monkeypatch,
):
    cache, key = make_cache(tmp_path)

    def refuse(name):
        raise PermissionError(f"read-only cache: {name}")

    monkeypatch.setattr(os, "unlink", refuse)
    with pytest.raises(TypeError):
        cache.put(key, {"spec": {"session_id": 0}, "runs": [object()]})
    assert len(list(cache.cache_dir.rglob("*.tmp"))) == 1


def test_len_survives_foreign_files(tmp_path):
    cache, key = make_cache(tmp_path)
    cache.put(key, PAYLOAD)
    (cache.cache_dir / "ab" / "stray.tmp").write_text("partial")
    assert len(cache) == 1


def test_fleet_recovers_from_corrupted_cache_entries(tmp_path):
    cache_dir = tmp_path / "cache"
    first = run_fleet(sessions=6, seed=0, runs=3, cache_dir=str(cache_dir))
    assert first.simulated == 6
    # Corrupt two entries in place; the next run must re-simulate
    # exactly those two and still produce identical results.
    victims = sorted(cache_dir.glob("??/*.json"))[:2]
    victims[0].write_text("{not json")
    victims[1].write_text("")
    second = run_fleet(sessions=6, seed=0, runs=3, cache_dir=str(cache_dir))
    assert second.cache_hits == 4
    assert second.simulated == 2
    assert (
        [r.to_dict() for r in first] == [r.to_dict() for r in second]
    )
