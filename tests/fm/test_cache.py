"""Tests for the temperature-0 FM cache (LRU, persistence, integration)."""

import threading

import pytest

from repro.fm import FMCache, FMExecutor, FMRequest, ScriptedFM, SimulatedFM


class TestCachePolicy:
    def test_roundtrip_at_temperature_zero(self):
        cache = FMCache()
        client = SimulatedFM(seed=0)
        response = client.build_response("p", "answer text")
        cache.put("gpt-4", "p", 0.0, response)
        hit = cache.get("gpt-4", "p", 0.0)
        assert hit is not None
        assert hit.text == "answer text"
        assert hit.cost_usd == response.cost_usd

    def test_sampling_temperature_never_cached(self):
        cache = FMCache()
        client = SimulatedFM(seed=0)
        cache.put("gpt-4", "p", 0.7, client.build_response("p", "x"))
        assert len(cache) == 0
        assert cache.get("gpt-4", "p", 0.7) is None
        assert cache.misses == 0  # sampling lookups bypass the stats too

    def test_model_is_part_of_the_key(self):
        cache = FMCache()
        client = SimulatedFM(seed=0)
        cache.put("gpt-4", "p", 0.0, client.build_response("p", "four"))
        assert cache.get("gpt-3.5-turbo", "p", 0.0) is None

    def test_lru_eviction(self):
        cache = FMCache(max_entries=2)
        client = SimulatedFM(seed=0)
        for name in ("a", "b", "c"):
            cache.put("m", name, 0.0, client.build_response(name, name))
        assert cache.get("m", "a", 0.0) is None  # oldest evicted
        assert cache.get("m", "c", 0.0) is not None
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = FMCache(max_entries=2)
        client = SimulatedFM(seed=0)
        cache.put("m", "a", 0.0, client.build_response("a", "a"))
        cache.put("m", "b", 0.0, client.build_response("b", "b"))
        cache.get("m", "a", 0.0)  # a becomes most recent
        cache.put("m", "c", 0.0, client.build_response("c", "c"))
        assert cache.get("m", "a", 0.0) is not None
        assert cache.get("m", "b", 0.0) is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FMCache(max_entries=0)


class TestPersistence:
    def test_save_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = FMCache(path=path)
        client = SimulatedFM(seed=0)
        cache.put("gpt-4", "prompt", 0.0, client.build_response("prompt", "cached answer"))
        cache.save()
        warm = FMCache(path=path)
        hit = warm.get("gpt-4", "prompt", 0.0)
        assert hit is not None and hit.text == "cached answer"

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError):
            FMCache().save()


class TestClientIntegration:
    def test_second_call_hits_without_rerunning(self):
        fm = ScriptedFM(["first"], model="scripted")
        fm.cache = FMCache()
        a = fm.complete("p", temperature=0.0)
        b = fm.complete("p", temperature=0.0)  # would exhaust the script
        assert a.text == b.text == "first"
        assert fm.ledger.n_calls == 1
        assert fm.ledger.cache_hits == 1

    def test_hits_add_no_cost_or_latency(self):
        fm = SimulatedFM(seed=0)
        fm.cache = FMCache()
        fm.complete("deterministic prompt", temperature=0.0)
        snap_cold = fm.ledger.snapshot()
        fm.complete("deterministic prompt", temperature=0.0)
        snap_warm = fm.ledger.snapshot()
        assert snap_warm["n_calls"] == snap_cold["n_calls"]
        assert snap_warm["cost_usd"] == snap_cold["cost_usd"]
        assert snap_warm["latency_s"] == snap_cold["latency_s"]
        assert snap_warm["cache_hits"] == 1

    def test_cache_shared_across_clients_keyed_by_model(self):
        cache = FMCache()
        a = SimulatedFM(seed=0, model="gpt-4")
        b = SimulatedFM(seed=0, model="gpt-4")
        a.cache = cache
        b.cache = cache
        a.complete("shared prompt", temperature=0.0)
        b.complete("shared prompt", temperature=0.0)
        assert b.ledger.n_calls == 0
        assert b.ledger.cache_hits == 1

    def test_executor_batches_use_the_cache(self):
        fm = SimulatedFM(seed=0)
        fm.cache = FMCache()
        requests = [FMRequest(f"p{i}", 0.0) for i in range(6)]
        FMExecutor().run(fm, requests)
        executor = FMExecutor(4)
        results = executor.run(fm, requests)
        assert all(r.cached for r in results)
        assert executor.stats.cache_hits == 6
        assert executor.stats.critical_path_s == 0.0

    def test_warm_cache_keeps_sampling_trajectory(self):
        """Cache hits consume the simulator's counter, so a warm rerun
        draws the same sampling sequence as the cold run."""

        def run(cache):
            fm = SimulatedFM(seed=3)
            fm.cache = cache
            fm.complete("deterministic a", temperature=0.0)
            drawn = fm.complete("sampled", temperature=0.9).text
            fm.complete("deterministic b", temperature=0.0)
            return drawn

        cache = FMCache()
        cold = run(cache)
        warm = run(cache)
        assert cold == warm


class TestThreadSafety:
    def test_concurrent_puts_and_gets(self):
        cache = FMCache(max_entries=64)
        client = SimulatedFM(seed=0)

        def hammer(k: int):
            for i in range(100):
                name = f"t{k} p{i % 8}"
                cache.put("m", name, 0.0, client.build_response(name, name))
                cache.get("m", name, 0.0)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 64
        snap = cache.snapshot()
        assert snap["puts"] == 600


class TestCapacityBoundaries:
    """LRU behaviour exactly at the capacity edge, where off-by-ones live."""

    def _fill(self, cache, n, prefix="k"):
        client = SimulatedFM(seed=0)
        for i in range(n):
            name = f"{prefix}{i}"
            cache.put("m", name, 0.0, client.build_response(name, name))

    def test_filling_to_exact_capacity_evicts_nothing(self):
        cache = FMCache(max_entries=3)
        self._fill(cache, 3)
        assert len(cache) == 3
        assert cache.evictions == 0
        assert all(cache.get("m", f"k{i}", 0.0) is not None for i in range(3))

    def test_one_past_capacity_evicts_exactly_one(self):
        cache = FMCache(max_entries=3)
        self._fill(cache, 4)
        assert len(cache) == 3
        assert cache.evictions == 1
        assert cache.get("m", "k0", 0.0) is None  # the oldest went
        assert all(cache.get("m", f"k{i}", 0.0) is not None for i in (1, 2, 3))

    def test_capacity_one(self):
        cache = FMCache(max_entries=1)
        self._fill(cache, 5)
        assert len(cache) == 1
        assert cache.evictions == 4
        assert cache.get("m", "k4", 0.0) is not None

    def test_overwriting_existing_key_does_not_evict(self):
        cache = FMCache(max_entries=2)
        client = SimulatedFM(seed=0)
        self._fill(cache, 2)
        cache.put("m", "k1", 0.0, client.build_response("k1", "updated"))
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get("m", "k1", 0.0).text == "updated"
        assert cache.get("m", "k0", 0.0) is not None

    def test_load_trims_to_capacity(self, tmp_path):
        path = tmp_path / "cache.json"
        big = FMCache(max_entries=10, path=path)
        self._fill(big, 10)
        big.save()
        small = FMCache(max_entries=4, path=path)
        assert len(small) == 4
        assert small.evictions == 6


class TestCorruptStores:
    """A damaged persistent store must cost a cold start, never a crash."""

    def _saved_store(self, tmp_path, n=4):
        path = tmp_path / "cache.json"
        cache = FMCache(path=path)
        client = SimulatedFM(seed=0)
        for i in range(n):
            cache.put("m", f"p{i}", 0.0, client.build_response(f"p{i}", f"text {i}"))
        cache.save()
        return path

    def test_truncated_store_recovers_empty_with_warning(self, tmp_path, capsys):
        path = self._saved_store(tmp_path)
        payload = path.read_text()
        path.write_text(payload[: len(payload) // 2])
        cache = FMCache(path=path)
        assert len(cache) == 0
        assert "ignoring unreadable FM cache" in capsys.readouterr().err
        # The survivor is fully functional: put, get, save all work.
        client = SimulatedFM(seed=0)
        cache.put("m", "fresh", 0.0, client.build_response("fresh", "fresh"))
        assert cache.get("m", "fresh", 0.0) is not None
        cache.save()
        assert len(FMCache(path=path)) == 1

    def test_garbage_bytes_recover_empty_with_warning(self, tmp_path, capsys):
        path = tmp_path / "cache.json"
        path.write_text("not json at all {{{")
        cache = FMCache(path=path)
        assert len(cache) == 0
        assert "ignoring unreadable FM cache" in capsys.readouterr().err

    def test_wrong_toplevel_shape_recovers_empty(self, tmp_path, capsys):
        import json as json_module

        path = tmp_path / "cache.json"
        for payload in ([1, 2, 3], {"entries": "not a dict"}):
            path.write_text(json_module.dumps(payload))
            cache = FMCache(path=path)
            assert len(cache) == 0
        assert "ignoring unreadable FM cache" in capsys.readouterr().err

    def test_malformed_entries_are_skipped_not_fatal(self, tmp_path):
        import json as json_module

        path = self._saved_store(tmp_path, n=2)
        payload = json_module.loads(path.read_text())
        payload["entries"]["poison1"] = {"text": "missing fields"}
        payload["entries"]["poison2"] = {
            "text": 42,  # wrong type
            "prompt_tokens": 1,
            "completion_tokens": 1,
            "latency_s": 0.1,
            "cost_usd": 0.0,
            "model": "m",
        }
        path.write_text(json_module.dumps(payload))
        cache = FMCache(path=path)
        assert len(cache) == 2  # the two healthy entries survived
        assert cache.get("m", "p0", 0.0) is not None

    def test_roundtrip_preserves_every_response_field(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = FMCache(path=path)
        client = SimulatedFM(seed=0, model="gpt-4")
        original = client.build_response("prompt text", "completion text")
        cache.put("gpt-4", "prompt text", 0.0, original)
        cache.save()
        restored = FMCache(path=path).get("gpt-4", "prompt text", 0.0)
        assert restored == original


class TestAtomicSave:
    """A crash mid-``save()`` must never corrupt the persistent store."""

    def _warm_store(self, tmp_path, n=3):
        path = tmp_path / "cache.json"
        cache = FMCache(path=path)
        client = SimulatedFM(seed=0)
        for i in range(n):
            cache.put("m", f"p{i}", 0.0, client.build_response(f"p{i}", f"a{i}"))
        cache.save()
        return path

    def test_save_goes_through_tmp_and_rename(self, tmp_path, monkeypatch):
        import os as os_module

        path = self._warm_store(tmp_path)
        replaced = []
        real_replace = os_module.replace
        monkeypatch.setattr(
            "repro.records.os.replace",
            lambda src, dst: (replaced.append((str(src), str(dst))), real_replace(src, dst))[1],
        )
        cache = FMCache(path=path)
        cache.save()
        assert replaced and replaced[0][0].endswith(".tmp")
        assert replaced[0][1] == str(path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_interrupted_write_leaves_old_store_intact(self, tmp_path, monkeypatch):
        from pathlib import Path

        path = self._warm_store(tmp_path, n=2)
        before = path.read_bytes()

        real_write_text = Path.write_text

        def dying_write(self, text, *args, **kwargs):
            # Simulate a crash mid-write: half the payload lands, then boom.
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", dying_write)
        cache = FMCache(path=path)
        client = SimulatedFM(seed=1)
        cache.put("m", "extra", 0.0, client.build_response("extra", "x"))
        with pytest.raises(OSError):
            cache.save()
        monkeypatch.undo()
        # The store on disk is byte-identical to the last good save ...
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        # ... and still loads warm.
        assert len(FMCache(path=path)) == 2

    def test_interrupted_replace_leaves_old_store_intact(self, tmp_path, monkeypatch):
        path = self._warm_store(tmp_path, n=2)
        before = path.read_bytes()
        monkeypatch.setattr(
            "repro.records.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("killed")),
        )
        cache = FMCache(path=path)
        with pytest.raises(OSError):
            cache.save()
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
