"""Offline/online split: a precomputation engine for the query hot path.

Almost every modular exponentiation the SkNN protocols perform is independent
of the query: obfuscation factors ``r^N mod N^2``, encryptions of protocol
constants (``E(0)``, ``E(1)``, ``E(2^i)``), and the random additive masks the
SM/SBD/SMIN rounds encrypt before handing values to C2.  A serving system can
therefore compute all of that in *idle time* and reduce the online cost of a
query to decryptions, the few genuinely query-dependent exponentiations, and
modular multiplications.

:class:`PrecomputeEngine` is that producer/consumer boundary.  It owns typed
pools:

* **obfuscators** — single-use ``r^N`` factors (a
  :class:`~repro.crypto.randomness_pool.RandomnessPool`), consumed by the
  owning party's ``encrypt_batch`` before the key's fixed-base comb;
* **constants** — ready ciphertexts of 0, 1 and (optionally) powers of two
  ``E(2^i)``, for SBD parity bits, SMIN's ``H_0``/``alpha``, SkNN_m's
  indicator vectors and bit-recomposition helpers;
* **mask tuples** — pairs ``(r, E(r))`` with ``r`` drawn from the range a
  protocol needs (``Z_N`` for SM/SSED/delivery masks, ``Z_N^*`` for SMIN's
  ``rhat``, ``[0, N - 2^l)`` for SBD), fully materialized offline so taking a
  mask costs *zero* hot-path multiplications.

Every pooled item is handed out **exactly once**; a drained pool falls back
to fresh randomness (never reuse), counting a miss.  Consuming a pooled
ciphertext advances the key's :class:`~repro.crypto.paillier.
OperationCounter` exactly like the non-pooled path would, so operation
accounting (and the Section 4.4 cost model) stays comparable — the pools'
hit counters record how many of those logical operations were actually paid
offline.  The engine's own ``offline`` counter records the precomputation
work (one ``r^N`` exponentiation per pooled item).

Producers: call :meth:`refill` from any idle-time hook (the serving layer's
scheduler does this between batches), or :meth:`start_producer` for a
background thread that keeps the pools topped up.
"""

from __future__ import annotations

import json
import threading
import zlib
from collections import deque
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import used for annotations only
    from pathlib import Path

from repro.crypto.backend import get_backend
from repro.crypto.paillier import (
    Ciphertext,
    OperationCounter,
    PaillierPublicKey,
)
from repro.crypto.randomness_pool import RandomnessPool
from repro.exceptions import ConfigurationError

__all__ = ["PrecomputeConfig", "PrecomputeEngine", "MASK_ZN", "MASK_NONZERO",
           "MASK_SBD"]

#: version of the on-disk pool cache format (see
#: :meth:`PrecomputeEngine.save_pools`)
_POOL_CACHE_VERSION = 1

#: Mask-tuple kinds (the sampling range each protocol requires).
MASK_ZN = "zn"            # r uniform in [0, N)      — SM, SSED, delivery
MASK_NONZERO = "nonzero"  # r uniform in [1, N)      — SMIN's rhat
MASK_SBD = "sbd"          # r uniform in [0, N - 2^l) — SBD round masks


@dataclass(frozen=True)
class PrecomputeConfig:
    """Target sizes of every typed pool (and the refill batch granularity).

    The defaults suit a small serving deployment; size them from the
    workload with :meth:`for_query_load`.
    """

    obfuscators: int = 256
    zeros: int = 32
    ones: int = 32
    #: height of the powers-of-two table (``E(2^i)`` for ``i < power_bits``);
    #: 0 disables the table.
    power_bits: int = 0
    powers_each: int = 4
    zn_masks: int = 128
    nonzero_masks: int = 0
    #: the SBD domain parameter ``l``; None disables the SBD mask pool.
    sbd_bit_length: int | None = None
    sbd_masks: int = 0
    #: largest number of items one :meth:`PrecomputeEngine.refill` call
    #: computes before re-checking deficits (keeps idle-slot refills short).
    refill_batch: int = 64

    @classmethod
    def for_query_load(cls, n_records: int, dimensions: int, k: int,
                       queries: int = 1,
                       sbd_bit_length: int | None = None,
                       worker_scan: bool = False) -> "PrecomputeConfig":
        """Evaluator-side (P1/C1) pool sizes covering ``queries`` warm queries.

        Per SkNN_b query P1 consumes ``n*m + k*m`` mask tuples (scan masks +
        delivery masks) plus a few obfuscators for fallbacks; the SBD/SMIN
        pools are sized only when ``l`` is given (SkNN_m workloads).  The
        powers-of-two table is *not* warmed here — no protocol consumes it
        yet (it backs the ciphertext-packing follow-up); configure
        ``power_bits`` explicitly to warm it.

        With ``worker_scan=True`` (the parallel/sharded modes, whose chunk
        workers sample their own scan masks and draw obfuscator *slices*
        from the plan's per-shard pools instead of mask tuples) the mask pool
        covers only the delivery phase.

        The decryptor's material (re-encryptions of square sums, parity/alpha/
        indicator constants) is sized by :meth:`for_decryptor_load` — in the
        paper's model each cloud precomputes with its *own* randomness.
        """
        scan_masks = 0 if worker_scan else n_records * dimensions
        per_query_masks = scan_masks + k * dimensions
        bits = sbd_bit_length or 0
        return cls(
            obfuscators=2 * dimensions * queries + 16,
            zeros=8,
            ones=(bits * n_records * queries // 2 + 8 if bits else 8),
            zn_masks=per_query_masks * queries,
            nonzero_masks=(bits * n_records * queries if bits else 0),
            sbd_bit_length=sbd_bit_length,
            sbd_masks=(bits * n_records * queries if bits else 0),
        )

    @classmethod
    def for_decryptor_load(cls, n_records: int, dimensions: int, k: int,
                           queries: int = 1,
                           sbd_bit_length: int | None = None
                           ) -> "PrecomputeConfig":
        """Decryptor-side (P2/C2) pool sizes covering ``queries`` queries.

        P2's precomputable work is the obfuscators of its re-encryptions
        (``n`` square-sum re-encryptions per SSED scan, plus the SM products
        of SkNN_m rounds) and the 0/1 constant pools backing the
        SBD parity bits, SMIN's ``alpha`` and SkNN_m's indicator vectors.
        """
        bits = sbd_bit_length or 0
        per_query_obf = n_records
        if bits:
            per_query_obf += 2 * bits * n_records
        constants = ((bits // 2 + 1) * n_records * queries if bits else 16)
        return cls(
            obfuscators=per_query_obf * queries,
            zeros=constants,
            ones=constants,
            zn_masks=0,
        )


class PrecomputeEngine:
    """Typed pools of precomputed Paillier material with offline accounting.

    An engine belongs to *one* party: its pools are filled with that party's
    randomness, so in the paper's two-cloud model C1 and C2 each run their
    own engine (see :meth:`~repro.network.party.TwoPartySetting.
    attach_engine`).  Handing one party material precomputed by the other
    would let the producer link or unmask the consumer's ciphertexts.

    Args:
        public_key: the deployment's Paillier public key.
        rng: optional deterministic randomness source (tests only).
        config: pool targets; defaults to :class:`PrecomputeConfig`.
    """

    def __init__(self, public_key: PaillierPublicKey,
                 rng: Random | None = None,
                 config: PrecomputeConfig | None = None) -> None:
        self.public_key = public_key
        self.rng = rng
        self.config = config if config is not None else PrecomputeConfig()
        if self.config.sbd_masks and not self.config.sbd_bit_length:
            raise ConfigurationError(
                "sbd_masks requires sbd_bit_length to be set")
        self.obfuscators = RandomnessPool(
            public_key, size=max(self.config.obfuscators, 1), rng=rng,
            precompute=False)
        self._lock = threading.Lock()
        # Counters get their own lock so hit/miss/offline bookkeeping is
        # race-free without holding the pool lock during fallback work.
        self._stats_lock = threading.Lock()
        # One producer at a time: serializes refills so two concurrent
        # producers cannot both observe the same deficit and overfill.
        self._refill_lock = threading.Lock()
        self._constants: dict[int, deque[int]] = {}
        self._masks: dict[str, deque[tuple[int, int]]] = {
            MASK_ZN: deque(), MASK_NONZERO: deque(), MASK_SBD: deque(),
        }
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}
        #: offline work performed by refills — one encryption (i.e. one
        #: ``r^N`` exponentiation) per pooled item.
        self.offline = OperationCounter()
        self._producer: threading.Thread | None = None
        self._producer_stop = threading.Event()

    # -- offline production ---------------------------------------------------
    def _fresh_factor(self) -> int:
        # One recipe for r^N factors across the code base (the pool's).
        return self.obfuscators._fresh_factor()

    def _raw_constant(self, value: int) -> int:
        """A fresh single-use raw ciphertext of ``value`` (one factor)."""
        pk = self.public_key
        encoded = pk.encode_signed(value)
        nude = (1 + encoded * pk.n) % pk.nsquare
        return get_backend().mulmod(nude, self._fresh_factor(), pk.nsquare)

    def _sample_mask(self, kind: str, sbd_upper: int | None = None) -> int:
        n = self.public_key.n
        rng = self.rng if self.rng is not None else _module_rng()
        if kind == MASK_ZN:
            return rng.randrange(n)
        if kind == MASK_NONZERO:
            return rng.randrange(1, n)
        if kind == MASK_SBD:
            upper = sbd_upper if sbd_upper is not None else self._sbd_upper()
            if upper is None:
                raise ConfigurationError(
                    "SBD mask pool requires sbd_bit_length in the config")
            return rng.randrange(upper)
        raise ConfigurationError(f"unknown mask kind {kind!r}")

    def _sbd_upper(self) -> int | None:
        if self.config.sbd_bit_length is None:
            return None
        return self.public_key.n - (1 << self.config.sbd_bit_length)

    def _constant_targets(self) -> dict[int, int]:
        targets = {0: self.config.zeros, 1: self.config.ones}
        for i in range(self.config.power_bits):
            targets[1 << i] = max(targets.get(1 << i, 0),
                                  self.config.powers_each)
        return targets

    def deficits(self) -> dict[str, int]:
        """How many items each pool is short of its configured target."""
        with self._lock:
            out: dict[str, int] = {}
            obf = self.config.obfuscators - self.obfuscators.remaining
            if obf > 0:
                out["obfuscators"] = obf
            for value, target in self._constant_targets().items():
                short = target - len(self._constants.get(value, ()))
                if short > 0:
                    out[f"constant:{value}"] = short
            mask_targets = {MASK_ZN: self.config.zn_masks,
                            MASK_NONZERO: self.config.nonzero_masks,
                            MASK_SBD: self.config.sbd_masks}
            for kind, target in mask_targets.items():
                short = target - len(self._masks[kind])
                if short > 0:
                    out[f"mask:{kind}"] = short
            return out

    def refill(self, budget: int | None = None) -> int:
        """Fill pools toward their targets; returns the items precomputed.

        This is the expensive producer step (one ``r^N`` exponentiation per
        item) and is meant to run off the query critical path — from an idle
        scheduler slot, the background producer thread, or setup code.
        ``budget`` caps the number of items computed in this call (``None``
        = fill everything); items are computed *outside* the pool locks so
        concurrent online takers never wait on a refill.
        """
        produced = 0
        remaining = budget if budget is not None else float("inf")
        with self._refill_lock:
            while remaining > 0:
                shortfalls = self.deficits()
                if not shortfalls:
                    break
                step = int(min(remaining, self.config.refill_batch))
                batch_done = 0
                for name, short in shortfalls.items():
                    take = min(short, step - batch_done)
                    if take <= 0:
                        break
                    if name == "obfuscators":
                        self.obfuscators.refill(take)
                    elif name.startswith("constant:"):
                        value = int(name.split(":", 1)[1])
                        fresh = [self._raw_constant(value)
                                 for _ in range(take)]
                        with self._lock:
                            self._constants.setdefault(value,
                                                       deque()).extend(fresh)
                    else:
                        kind = name.split(":", 1)[1]
                        fresh_masks = []
                        for _ in range(take):
                            r = self._sample_mask(kind)
                            fresh_masks.append((r, self._raw_constant(r)))
                        with self._lock:
                            self._masks[kind].extend(fresh_masks)
                    batch_done += take
                if batch_done == 0:
                    break
                with self._stats_lock:
                    self.offline.encryptions += batch_done
                produced += batch_done
                remaining -= batch_done
        return produced

    def warm(self) -> int:
        """Fill every pool to its target (alias for an unbounded refill)."""
        return self.refill(None)

    # -- background producer ---------------------------------------------------
    def start_producer(self, interval_seconds: float = 0.02) -> None:
        """Start a daemon thread that keeps the pools topped up (idempotent)."""
        if self._producer is not None and self._producer.is_alive():
            return
        self._producer_stop.clear()

        def _loop() -> None:
            while not self._producer_stop.is_set():
                if self.refill(self.config.refill_batch) == 0:
                    self._producer_stop.wait(interval_seconds)

        self._producer = threading.Thread(
            target=_loop, name="sknn-precompute-producer", daemon=True)
        self._producer.start()

    def stop_producer(self) -> None:
        """Stop the background producer thread (no-op when not running)."""
        if self._producer is None:
            return
        self._producer_stop.set()
        self._producer.join()
        self._producer = None

    # -- online consumers ------------------------------------------------------
    def _record(self, counters: dict[str, int], name: str) -> None:
        with self._stats_lock:
            counters[name] = counters.get(name, 0) + 1

    def encrypt(self, value: int) -> Ciphertext:
        """Encrypt using one pooled obfuscator.

        A dry pool falls back to the key's fixed-base comb (via the batch
        kernel), so a drained engine is never slower than no engine.
        """
        return self.public_key.encrypt_batch([value], rng=self.rng,
                                             pool=self.obfuscators)[0]

    def encrypt_batch(self, values: Sequence[int]) -> list[Ciphertext]:
        """Vectorized pooled encryption (comb fallback past the pool)."""
        return self.public_key.encrypt_batch(list(values), rng=self.rng,
                                             pool=self.obfuscators)

    def encrypt_constant(self, value: int) -> Ciphertext:
        """A fresh single-use encryption of a pooled constant.

        Values with a typed pool (0, 1 and the configured powers of two) are
        served as ready ciphertexts — zero hot-path multiplications; other
        values fall back to a pooled-obfuscator encryption.  The key counter
        advances by one encryption either way (parity with the plain path).
        """
        pk = self.public_key
        with self._lock:
            store = self._constants.get(value)
            if store:
                raw = store.popleft()
                self._record(self.hits, f"constant:{value}")
                pk.counter.encryptions += 1
                return Ciphertext(pk, raw)
        self._record(self.misses, f"constant:{value}")
        return self.encrypt(value)

    def encrypt_constants(self, values: Sequence[int]) -> list[Ciphertext]:
        """Vectorized :meth:`encrypt_constant` (one take per element)."""
        return [self.encrypt_constant(v) for v in values]

    def take_power_of_two(self, exponent: int) -> Ciphertext:
        """A single-use ``E(2^i)`` from the powers-of-two table."""
        if exponent < 0:
            raise ConfigurationError("power-of-two exponent must be >= 0")
        return self.encrypt_constant(1 << exponent)

    def take_mask(self, kind: str = MASK_ZN,
                  sbd_upper: int | None = None) -> tuple[int, Ciphertext]:
        """One additive mask ``(r, E(r))``: :meth:`take_masks` of one."""
        return self.take_masks(1, kind, sbd_upper=sbd_upper)[0]

    def take_masks(self, count: int, kind: str = MASK_ZN,
                   sbd_upper: int | None = None
                   ) -> list[tuple[int, Ciphertext]]:
        """``count`` precomputed additive masks ``(r, E(r))`` of one kind.

        Pooled tuples are drained first; the shortfall is sampled online and
        encrypted in one batch-kernel call (pooled obfuscators, then the
        fixed-base comb) — fresh randomness, never a reused tuple, and even
        a fully drained engine pays comb rates, never per-element textbook
        exponentiations.  ``sbd_upper`` guards the SBD kind: when the
        caller's mask range does not match the engine's configured ``l`` the
        pooled tuples are skipped (their range would be wrong for the
        caller) and every mask is sampled below ``sbd_upper``.
        """
        pk = self.public_key
        usable = (kind != MASK_SBD or sbd_upper is None
                  or self._sbd_upper() == sbd_upper)
        with self._lock:
            store = self._masks.get(kind) if usable else None
            served = min(count, len(store)) if store is not None else 0
            pooled = [store.popleft() for _ in range(served)]
        out: list[tuple[int, Ciphertext]] = []
        if served:
            with self._stats_lock:
                name = f"mask:{kind}"
                self.hits[name] = self.hits.get(name, 0) + served
            pk.counter.encryptions += served
            out.extend((r, Ciphertext(pk, raw)) for r, raw in pooled)
        shortfall = count - served
        if shortfall:
            with self._stats_lock:
                name = f"mask:{kind}"
                self.misses[name] = self.misses.get(name, 0) + shortfall
            fresh = [self._sample_mask(kind, sbd_upper)
                     for _ in range(shortfall)]
            out.extend(zip(fresh, self.encrypt_batch(fresh)))
        return out

    # -- persistence -----------------------------------------------------------
    def save_pools(self, path: "str | Path") -> int:
        """Persist the warmed pools to ``path``; returns the items saved.

        The file is a versioned, CRC-stamped JSON document binding the
        material to the public key's modulus (a cache for a different key is
        rejected at load).  Pools are *drained* into the file, so a factor
        or mask tuple is either in memory or on disk, never both — the
        single-use guarantee survives the round trip.  The write is atomic
        (tmp + fsync + rename), so a crash mid-save leaves either the
        previous cache or the complete new one, never a torn file.  Meant
        to run at daemon shutdown (``--pool-cache``) so a restarted party
        starts hot.
        """
        from pathlib import Path

        # Function-level import: crypto is a lower layer than resilience
        # (resilience's chaos module imports transport framing, which
        # imports crypto serialization).
        from repro.resilience.durability import atomic_write_bytes

        with self._lock:
            constants = {str(value): [format(raw, "x") for raw in store]
                         for value, store in self._constants.items()
                         if store}
            masks = {kind: [[format(r, "x"), format(raw, "x")]
                            for r, raw in store]
                     for kind, store in self._masks.items() if store}
            for store in self._constants.values():
                store.clear()
            for store in self._masks.values():
                store.clear()
        factors = self.obfuscators.drain_factors()
        data = {
            "format": _POOL_CACHE_VERSION,
            "kind": "precompute-pool-cache",
            "n": format(self.public_key.n, "x"),
            "sbd_bit_length": self.config.sbd_bit_length,
            "obfuscators": [format(factor, "x") for factor in factors],
            "constants": constants,
            "masks": masks,
        }
        data["crc"] = format(
            zlib.crc32(json.dumps(data, sort_keys=True,
                                  separators=(",", ":")).encode("utf-8")),
            "08x")
        saved = (len(factors)
                 + sum(len(v) for v in constants.values())
                 + sum(len(v) for v in masks.values()))
        atomic_write_bytes(Path(path), json.dumps(data).encode("utf-8"))
        return saved

    def load_pools(self, path: "str | Path") -> int:
        """Reload pools saved by :meth:`save_pools`; returns items adopted.

        The cache file is **deleted** after a successful load: the stored
        randomness is single-use, and removing the file guarantees a crashed
        (or concurrently started) party can never replay it.  A cache bound
        to a different modulus raises
        :class:`~repro.exceptions.ConfigurationError`; SBD mask tuples whose
        recorded ``l`` differs from this engine's configuration are dropped
        (their sampling range would be wrong), everything else loads.
        """
        from pathlib import Path

        target = Path(path)
        try:
            data = json.loads(target.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"unreadable pool cache {path}: {exc}")
        if (not isinstance(data, dict)
                or data.get("kind") != "precompute-pool-cache"
                or data.get("format") != _POOL_CACHE_VERSION):
            raise ConfigurationError(
                f"{path} is not a version-{_POOL_CACHE_VERSION} pool cache")
        stored_crc = data.pop("crc", None)
        if stored_crc is not None:
            computed = format(
                zlib.crc32(json.dumps(data, sort_keys=True,
                                      separators=(",", ":")).encode("utf-8")),
                "08x")
            if stored_crc != computed:
                # A corrupted cache is rejected, never half-adopted: bad
                # randomness here would silently weaken every masking step.
                raise ConfigurationError(
                    f"pool cache {path} failed its CRC check "
                    f"(stored {stored_crc}, computed {computed})")
        if data.get("n") != format(self.public_key.n, "x"):
            raise ConfigurationError(
                f"pool cache {path} was produced under a different key")
        adopted = self.obfuscators.adopt_factors(
            [int(factor, 16) for factor in data.get("obfuscators", [])])
        with self._lock:
            for value, store in data.get("constants", {}).items():
                raws = [int(raw, 16) for raw in store]
                self._constants.setdefault(int(value), deque()).extend(raws)
                adopted += len(raws)
            for kind, store in data.get("masks", {}).items():
                if kind not in self._masks:
                    continue
                if (kind == MASK_SBD
                        and data.get("sbd_bit_length")
                        != self.config.sbd_bit_length):
                    continue
                tuples = [(int(r, 16), int(raw, 16)) for r, raw in store]
                self._masks[kind].extend(tuples)
                adopted += len(tuples)
        target.unlink()
        return adopted

    # -- introspection ---------------------------------------------------------
    def remaining(self) -> dict[str, int]:
        """Items currently available per pool."""
        with self._lock:
            out = {"obfuscators": self.obfuscators.remaining}
            for value, store in self._constants.items():
                out[f"constant:{value}"] = len(store)
            for kind, store in self._masks.items():
                out[f"mask:{kind}"] = len(store)
            return out

    def stats(self) -> dict[str, object]:
        """Pool effectiveness and offline-work accounting.

        Counter fields are read under the stats lock (and the obfuscator
        pool's own lock), so concurrent online takers can never produce a
        torn snapshot — e.g. a hit counted but its dict resize observed
        mid-flight.
        """
        remaining = self.remaining()
        obfuscators = self.obfuscators.stats()
        with self._stats_lock:
            offline = self.offline.encryptions
            hits = dict(self.hits)
            misses = dict(self.misses)
        return {
            "remaining": remaining,
            "hits": hits,
            "misses": misses,
            "obfuscator_hits": obfuscators["hits"],
            "obfuscator_misses": obfuscators["misses"],
            "offline_encryptions": offline,
            "offline_powmods": offline,
        }

    def pool_hit_total(self) -> int:
        """Total pooled items consumed (tuples + constants + obfuscators)."""
        with self._stats_lock:
            pooled = sum(self.hits.values())
        return pooled + self.obfuscators.stats()["hits"]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"PrecomputeEngine(remaining={self.remaining()}, "
                f"offline={self.offline.encryptions})")


_MODULE_RNG = Random()


def _module_rng() -> Random:
    """Process-wide fallback randomness for engines without an explicit rng."""
    return _MODULE_RNG
