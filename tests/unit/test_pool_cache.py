"""Pool persistence: a warmed precompute pool survives a daemon restart.

The cache file is versioned, CRC-stamped, bound to the key's modulus, and
strictly single-use: saving *drains* the in-memory pool and loading *deletes*
the file, so an obfuscation factor can never be consumed twice across process
lifetimes.  Loading fails closed: anything but a complete format-2 cache for
this key is rejected, left on disk and never half-adopted.
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
        assert fresh.offline.encryptions == 0


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

    def test_format_1_cache_rejected(self, warm_engine, public_key, tmp_path):
        """The typed-pool format is not read, whatever its CRC says."""
        import zlib

        cache = tmp_path / "pools.json"
        warm_engine.save_pools(cache)
        data = json.loads(cache.read_text())
        del data["crc"]
        data.update(format=1, sbd_bit_length=None, constants={}, masks={})
        data["crc"] = format(zlib.crc32(json.dumps(
            data, sort_keys=True, separators=(",", ":")).encode()), "08x")
        cache.write_text(json.dumps(data))
        engine = PrecomputeEngine(public_key, config=small_config())
        with pytest.raises(ConfigurationError, match="version-2 pool cache"):
            engine.load_pools(cache)
        assert cache.exists()
        assert engine.remaining() == {"obfuscators": 0}

    def test_unreadable_cache_rejected(self, public_key, tmp_path):
        cache = tmp_path / "pools.json"
        cache.write_text("{truncated")
        engine = PrecomputeEngine(public_key, config=small_config())
        with pytest.raises(ConfigurationError, match="unreadable"):
            engine.load_pools(cache)

    def test_bit_flipped_cache_fails_the_crc(self, warm_engine, public_key,
                                             tmp_path):
        cache = tmp_path / "pools.json"
        warm_engine.save_pools(cache)
        data = json.loads(cache.read_text())
        # flip one nibble of one stored obfuscation factor
        factor = data["obfuscators"][0]
        data["obfuscators"][0] = ("0" if factor[0] != "0" else "1") + factor[1:]
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

    def test_cache_document_is_exactly_format_2(self, warm_engine, tmp_path):
        cache = tmp_path / "pools.json"
        warm_engine.save_pools(cache)
        data = json.loads(cache.read_text())
        assert sorted(data) == ["crc", "format", "kind", "n", "obfuscators"]
        assert data["format"] == 2
        assert len(data["obfuscators"]) == 20
