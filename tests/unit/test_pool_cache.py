"""Pool persistence: a warmed precompute pool survives a daemon restart.

The cache file is a versioned, CRC-checked snapshot
(``repro.resilience.durability.write_snapshot``) bound to the key's modulus,
and strictly single-use: saving *drains* the in-memory pool and loading
*deletes* the file, so an obfuscation factor can never be consumed twice
across process lifetimes.  Loading fails closed: anything but a complete
pool-cache snapshot for this key is rejected, left on disk and never
half-adopted.
"""

from __future__ import annotations

import json
from random import Random

import pytest

from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine
from repro.exceptions import ConfigurationError


def small_config(**overrides):
    defaults = dict(obfuscators=20, refill_batch=8)
    defaults.update(overrides)
    return PrecomputeConfig(**defaults)


@pytest.fixture()
def warm_engine(public_key):
    engine = PrecomputeEngine(public_key, rng=Random(3), config=small_config())
    engine.warm()
    return engine


class TestSaveLoadRoundTrip:
    def test_round_trip_restores_the_pool(self, warm_engine, public_key,
                                            tmp_path):
        cache = tmp_path / "c1.pools"
        before = warm_engine.remaining()
        saved = warm_engine.save_pools(cache)
        assert saved == sum(before.values())
        # Saving drained the source engine (single-use: memory XOR disk).
        assert sum(warm_engine.remaining().values()) == 0

        fresh = PrecomputeEngine(public_key, rng=Random(4),
                                 config=small_config())
        loaded = fresh.load_pools(cache)
        assert loaded == saved
        assert fresh.remaining() == before
        # The cache is deleted on load so a restart can never replay it.
        assert not cache.exists()

    def test_loaded_material_is_usable(self, warm_engine, public_key,
                                       private_key, tmp_path):
        cache = tmp_path / "pools.json"
        warm_engine.save_pools(cache)
        fresh = PrecomputeEngine(public_key, rng=Random(5),
                                 config=small_config())
        fresh.load_pools(cache)
        [(r, enc_r)] = fresh.take_masks(1, "zn")
        assert private_key.decrypt_raw_residue(enc_r) == r
        assert private_key.decrypt_batch(fresh.encrypt_batch([1])) == [1]
        assert fresh.stats()["obfuscator_hits"] == 2

    def test_warm_after_load_only_tops_up(self, warm_engine, public_key,
                                          tmp_path):
        cache = tmp_path / "pools.json"
        warm_engine.save_pools(cache)
        fresh = PrecomputeEngine(public_key, rng=Random(6),
                                 config=small_config())
        fresh.load_pools(cache)
        # Everything was reloaded, so warming finds no deficit: the restarted
        # party starts hot without redoing the offline exponentiations.
        assert fresh.warm() == 0
        assert fresh.offline_encryptions == 0


class TestCacheValidation:
    def test_wrong_key_rejected(self, warm_engine, tmp_path):
        from repro.crypto.paillier import generate_keypair

        cache = tmp_path / "pools.json"
        warm_engine.save_pools(cache)
        other_key = generate_keypair(128, Random(99)).public_key
        other = PrecomputeEngine(other_key, rng=Random(7),
                                 config=small_config())
        with pytest.raises(ConfigurationError, match="different key"):
            other.load_pools(cache)
        assert cache.exists()  # a rejected cache is left untouched

    def test_wrong_format_rejected(self, public_key, tmp_path):
        cache = tmp_path / "pools.json"
        cache.write_text(json.dumps({"kind": "something-else", "format": 2}))
        engine = PrecomputeEngine(public_key, config=small_config())
        with pytest.raises(ConfigurationError, match="pool cache"):
            engine.load_pools(cache)

    @pytest.mark.parametrize("layout", [
        dict(format=1, sbd_bit_length=None, constants={}, masks={}),
        dict(format=2)])
    def test_hand_rolled_caches_rejected(self, warm_engine, public_key,
                                         tmp_path, layout):
        """The earlier layouts (format 1 with typed pools, format 2 with a
        bare factor list, both with a top-level CRC) are not read, whatever
        their CRC says."""
        import zlib

        cache = tmp_path / "pools.json"
        warm_engine.save_pools(cache)
        payload = json.loads(json.loads(cache.read_text())["payload"])
        data = dict(payload, kind="precompute-pool-cache", **layout)
        data["crc"] = format(zlib.crc32(json.dumps(
            data, sort_keys=True, separators=(",", ":")).encode()), "08x")
        cache.write_text(json.dumps(data))
        engine = PrecomputeEngine(public_key, config=small_config())
        with pytest.raises(ConfigurationError, match="pool cache"):
            engine.load_pools(cache)
        assert cache.exists()
        assert engine.remaining() == {"obfuscators": 0}

    def test_unreadable_cache_rejected(self, public_key, tmp_path):
        cache = tmp_path / "pools.json"
        cache.write_text("{truncated")
        engine = PrecomputeEngine(public_key, config=small_config())
        with pytest.raises(ConfigurationError, match="unreadable"):
            engine.load_pools(cache)

    def test_missing_cache_rejected(self, public_key, tmp_path):
        engine = PrecomputeEngine(public_key, config=small_config())
        with pytest.raises(ConfigurationError, match="missing"):
            engine.load_pools(tmp_path / "absent.json")
        assert engine.remaining() == {"obfuscators": 0}

    def test_torn_cache_rejected(self, warm_engine, public_key, tmp_path):
        cache = tmp_path / "pools.json"
        warm_engine.save_pools(cache)
        text = cache.read_text()
        cache.write_text(text[:len(text) // 2])  # a write cut short
        engine = PrecomputeEngine(public_key, config=small_config())
        with pytest.raises(ConfigurationError, match="unreadable"):
            engine.load_pools(cache)
        assert cache.exists()
        assert engine.remaining() == {"obfuscators": 0}

    def test_bit_flipped_cache_fails_the_crc(self, warm_engine, public_key,
                                             tmp_path):
        cache = tmp_path / "pools.json"
        warm_engine.save_pools(cache)
        data = json.loads(cache.read_text())
        payload = json.loads(data["payload"])
        # flip one nibble of one stored obfuscation factor
        factor = payload["obfuscators"][0]
        payload["obfuscators"][0] = ("0" if factor[0] != "0" else "1") \
            + factor[1:]
        data["payload"] = json.dumps(payload)
        cache.write_text(json.dumps(data))
        engine = PrecomputeEngine(public_key, rng=Random(9),
                                  config=small_config())
        # rejected with a typed error, never half-adopted or crashed on
        with pytest.raises(ConfigurationError, match="CRC"):
            engine.load_pools(cache)
        assert sum(engine.remaining().values()) == 0

    def test_cache_without_crc_rejected(self, warm_engine, public_key,
                                        tmp_path):
        cache = tmp_path / "pools.json"
        warm_engine.save_pools(cache)
        data = json.loads(cache.read_text())
        del data["crc"]  # a cache written before the CRC field existed
        cache.write_text(json.dumps(data))
        engine = PrecomputeEngine(public_key, rng=Random(10),
                                  config=small_config())
        with pytest.raises(ConfigurationError, match="CRC"):
            engine.load_pools(cache)
        # fail closed: nothing adopted, and the failed load deletes nothing
        assert engine.remaining() == {"obfuscators": 0}
        assert cache.exists()

    def test_save_leaves_no_temp_file(self, warm_engine, tmp_path):
        cache = tmp_path / "pools.json"
        warm_engine.save_pools(cache)
        assert [p.name for p in tmp_path.iterdir()] == ["pools.json"]

    def test_cache_document_is_a_snapshot(self, warm_engine, public_key,
                                          tmp_path):
        from repro.resilience.durability import read_snapshot

        cache = tmp_path / "pools.json"
        warm_engine.save_pools(cache)
        data = json.loads(cache.read_text())
        assert sorted(data) == ["crc", "format", "kind", "payload"]
        payload = read_snapshot(cache, "precompute-pool-cache")
        assert sorted(payload) == ["n", "obfuscators"]
        assert payload["n"] == format(public_key.n, "x")
        assert len(payload["obfuscators"]) == 20
