"""Offline/online split: a precomputation engine for the query hot path.

Every encryption the SkNN protocols perform is ``(1 + v*N) * r^N mod N^2``,
and only the obfuscation factor ``r^N`` costs an exponentiation — it does not
depend on ``v``.  A serving system can therefore compute a stock of factors in
*idle time* and reduce the online cost of a query to decryptions, the few
genuinely query-dependent exponentiations, and modular multiplications: a
pooled encryption is one multiplication whatever it encrypts (a protocol
constant, an additive mask, a re-encrypted square sum).

:class:`PrecomputeEngine` is that producer/consumer boundary.  It owns **one**
store — a :class:`~repro.crypto.randomness_pool.RandomnessPool` of single-use
``r^N`` factors — plus its lifecycle: refill to a target, a background
producer, save/load across restarts and the offline work counter.  The owning
party's ``encrypt_batch`` draws from the pool and covers a shortfall with the
key's fixed-base comb, so there are two draw tiers (pool, then backend) and a
drained engine is never slower than no engine.

Every factor is handed out **exactly once**.  Consuming one advances the
key's :class:`~repro.crypto.paillier.OperationCounter` exactly like the
non-pooled path would, so operation accounting (and the Section 4.4 cost
model) stays comparable — the pool's hit counter records how many of those
logical encryptions were actually paid offline, and the engine's ``offline``
counter records the precomputation work (one ``r^N`` exponentiation per
factor).

Producers: call :meth:`PrecomputeEngine.refill` from any idle-time hook (the
serving layer's scheduler does this between batches), or
:meth:`PrecomputeEngine.start_producer` for a background thread that keeps
the pool topped up.
"""

from __future__ import annotations

import json
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Sequence

from repro.crypto.paillier import (
    Ciphertext,
    OperationCounter,
    PaillierPublicKey,
)
from repro.crypto.randomness_pool import RandomnessPool
from repro.exceptions import ConfigurationError

__all__ = ["PrecomputeConfig", "PrecomputeEngine", "MASK_ZN", "MASK_NONZERO",
           "MASK_SBD", "mask_range"]

#: version of the on-disk pool cache format (see
#: :meth:`PrecomputeEngine.save_pools`); format 1 also stored typed constant
#: and mask-tuple pools and is rejected.
_POOL_CACHE_VERSION = 2
_POOL_CACHE_KIND = "precompute-pool-cache"

#: Additive-mask kinds (the sampling range each protocol requires).
MASK_ZN = "zn"            # r uniform in [0, N)         — SM, SSED, delivery
MASK_NONZERO = "nonzero"  # r uniform in [1, N)         — SMIN's rhat
MASK_SBD = "sbd"          # r uniform in [0, sbd_upper) — SBD round masks

#: process-wide fallback randomness for engines without an explicit rng
_MODULE_RNG = Random()


def _cache_crc(data: dict) -> str:
    """CRC-32 (hex) of a pool-cache document's canonical JSON form."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(canonical.encode("utf-8")), "08x")


def mask_range(kind: str, n: int,
               sbd_upper: int | None = None) -> tuple[int, int]:
    """The half-open range ``[lower, upper)`` a mask of ``kind`` is drawn from.

    The one rule for both mask sources (:meth:`PrecomputeEngine.take_masks`
    and the engine-less :meth:`~repro.protocols.base.TwoPartyProtocol.
    take_masks`); ``sbd_upper`` is SBD's ``N - 2^l`` and required for that
    kind.
    """
    if kind == MASK_ZN:
        return 0, n
    if kind == MASK_NONZERO:
        return 1, n
    if kind == MASK_SBD:
        if sbd_upper is None:
            raise ConfigurationError("SBD masks require sbd_upper")
        return 0, sbd_upper
    raise ConfigurationError(f"unknown mask kind {kind!r}")


@dataclass(frozen=True)
class PrecomputeConfig:
    """The pool's target size (and the refill batch granularity).

    One number to size: every pooled item is an ``r^N`` factor, good for any
    encryption its party performs.  Derive it from the workload with
    :meth:`for_query_load` / :meth:`for_decryptor_load`.
    """

    obfuscators: int = 448
    #: largest number of factors one :meth:`PrecomputeEngine.refill` step
    #: computes before re-checking the deficit (keeps idle-slot refills short).
    refill_batch: int = 64

    @classmethod
    def for_query_load(cls, n_records: int, dimensions: int, k: int,
                       queries: int = 1,
                       sbd_bit_length: int | None = None,
                       worker_scan: bool = False) -> "PrecomputeConfig":
        """Evaluator-side (P1/C1) pool size covering ``queries`` warm queries.

        Per SkNN_b query P1 encrypts ``n*m + k*m`` additive masks (scan +
        delivery) plus ``2m`` spare.  With ``l`` given (SkNN_m workloads) it
        also encrypts ``l*n`` SBD masks and about ``l*n/2`` SBD ones, and per
        iteration at most ``n`` SMIN pairs' ``l + 1`` ``rhat`` masks and
        ``Z`` (``n * (l + 2)``) and ``n*m`` extraction masks.  A flat 32
        covers the first query's odds and ends.

        With ``worker_scan=True`` (the parallel/sharded modes, whose chunk
        workers draw obfuscator *slices* from the plan's per-shard pools)
        the scan masks are left out.

        The decryptor's material is sized by :meth:`for_decryptor_load` — in
        the paper's model each cloud precomputes with its *own* randomness.
        """
        scan_masks = 0 if worker_scan else n_records * dimensions
        bits = sbd_bit_length or 0
        sbd = bits * n_records * queries
        ones = sbd // 2
        smin_and_extraction = (k * n_records * (bits + 2 + dimensions) * queries
                               if bits else 0)
        return cls(obfuscators=(
            (scan_masks + (k + 2) * dimensions) * queries + 32
            + sbd + ones + smin_and_extraction))

    @classmethod
    def for_decryptor_load(cls, n_records: int, dimensions: int, k: int,
                           queries: int = 1,
                           sbd_bit_length: int | None = None
                           ) -> "PrecomputeConfig":
        """Decryptor-side (P2/C2) pool size covering ``queries`` queries.

        P2 re-encrypts ``n`` square sums per SSED scan; with ``l`` given it
        also encrypts ``l*n`` SBD parity bits, and per iteration ``n``
        indicator bits, ``m`` zeros for the forwarded record, and for at
        most ``n`` SMIN pairs one ``alpha`` and the ``l + 1`` zeros that
        re-randomize ``M'`` (``n * (l + 3) + m``).  A flat 32 otherwise.
        """
        bits = sbd_bit_length or 0
        if not bits:
            return cls(obfuscators=n_records * queries + 32)
        return cls(obfuscators=(
            (n_records * (1 + bits) + k * (n_records * (bits + 3) + dimensions))
            * queries + 32))


class PrecomputeEngine:
    """One pool of precomputed ``r^N`` factors with offline accounting.

    An engine belongs to *one* party: its pool is filled with that party's
    randomness, so in the paper's two-cloud model C1 and C2 each run their
    own engine (see :meth:`~repro.network.party.TwoPartySetting.
    attach_engine`).  Handing one party material precomputed by the other
    would let the producer link or unmask the consumer's ciphertexts.

    Args:
        public_key: the deployment's Paillier public key.
        rng: optional deterministic randomness source (tests only).
        config: pool target; defaults to :class:`PrecomputeConfig`.
    """

    def __init__(self, public_key: PaillierPublicKey,
                 rng: Random | None = None,
                 config: PrecomputeConfig | None = None) -> None:
        self.public_key = public_key
        self.rng = rng
        self.config = config if config is not None else PrecomputeConfig()
        self.obfuscators = RandomnessPool(
            public_key, size=max(self.config.obfuscators, 1), rng=rng,
            precompute=False)
        # One producer at a time: serializes refills so two concurrent
        # producers cannot both observe the same deficit and overfill.
        self._refill_lock = threading.Lock()
        #: offline work performed by refills — one encryption (i.e. one
        #: ``r^N`` exponentiation) per pooled factor.
        self.offline = OperationCounter()
        self._producer: threading.Thread | None = None
        self._producer_stop = threading.Event()

    # -- offline production ---------------------------------------------------
    def deficit(self) -> int:
        """How many factors the pool is short of its configured target."""
        return max(self.config.obfuscators - self.obfuscators.remaining, 0)

    def refill(self, budget: int | None = None) -> int:
        """Fill the pool toward its target; returns the factors precomputed.

        This is the expensive producer step (one ``r^N`` exponentiation per
        factor) and is meant to run off the query critical path — from an
        idle scheduler slot, the background producer thread, or setup code.
        ``budget`` caps the number of factors computed in this call (``None``
        = fill to target); they are computed ``refill_batch`` at a time and
        *outside* the pool lock, so concurrent online takers never wait on a
        refill.
        """
        produced = 0
        with self._refill_lock:
            while True:
                step = min(self.deficit(), self.config.refill_batch)
                if budget is not None:
                    step = min(step, budget - produced)
                if step <= 0:
                    break
                # Counted before the factors become takeable, so a stats
                # snapshot never shows more hits than offline work.
                self.offline.encryptions += step
                produced += self.obfuscators.refill(step)
        return produced

    def warm(self) -> int:
        """Fill the pool to its target (alias for an unbounded refill)."""
        return self.refill(None)

    # -- background producer ---------------------------------------------------
    def start_producer(self, interval_seconds: float = 0.02) -> None:
        """Start a daemon thread that keeps the pool topped up (idempotent)."""
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
    def encrypt_batch(self, values: Sequence[int]) -> list[Ciphertext]:
        """Vectorized pooled encryption (comb fallback past the pool)."""
        return self.obfuscators.encrypt_batch(list(values))

    def take_masks(self, count: int, kind: str = MASK_ZN,
                   sbd_upper: int | None = None
                   ) -> list[tuple[int, Ciphertext]]:
        """``count`` fresh additive masks ``(r, E(r))`` of one kind.

        Sampled in the kind's :func:`mask_range` and encrypted in one
        batch-kernel call: one pooled factor and one multiplication per mask
        while the pool lasts, the fixed-base comb past it — never a reused
        factor, never a textbook exponentiation.
        """
        lower, upper = mask_range(kind, self.public_key.n, sbd_upper)
        rng = self.rng if self.rng is not None else _MODULE_RNG
        masks = [rng.randrange(lower, upper) for _ in range(count)]
        return list(zip(masks, self.encrypt_batch(masks)))

    # -- persistence -----------------------------------------------------------
    def save_pools(self, path: "str | Path") -> int:
        """Persist the warmed pool to ``path``; returns the factors saved.

        The file is a versioned, CRC-stamped JSON document ``{kind, format,
        n, obfuscators, crc}`` binding the factors to the public key's
        modulus (a cache for a different key is rejected at load).  The pool
        is *drained* into the file, so a factor is either in memory or on
        disk, never both — the single-use guarantee survives the round trip.
        The write is atomic (tmp + fsync + rename), so a crash mid-save
        leaves either the previous cache or the complete new one, never a
        torn file.  Meant to run at daemon shutdown (``--pool-cache``) so a
        restarted party starts hot.
        """
        # Function-level import: crypto is a lower layer than resilience
        # (resilience's chaos module imports transport framing, which
        # imports crypto serialization).
        from repro.resilience.durability import atomic_write_bytes

        factors = self.obfuscators.drain_factors()
        data = {
            "format": _POOL_CACHE_VERSION,
            "kind": _POOL_CACHE_KIND,
            "n": format(self.public_key.n, "x"),
            "obfuscators": [format(factor, "x") for factor in factors],
        }
        data["crc"] = _cache_crc(data)
        atomic_write_bytes(Path(path), json.dumps(data).encode("utf-8"))
        return len(factors)

    def load_pools(self, path: "str | Path") -> int:
        """Reload a pool saved by :meth:`save_pools`; returns factors adopted.

        The cache file is **deleted** after a successful load: the stored
        randomness is single-use, and removing the file guarantees a crashed
        (or concurrently started) party can never replay it.  Loading fails
        closed with :class:`~repro.exceptions.ConfigurationError` — file left
        in place, nothing adopted — on an unreadable file, another format
        version, a missing or wrong CRC, or a different modulus: bad
        randomness here would silently weaken every masking step.
        """
        target = Path(path)
        try:
            data = json.loads(target.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"unreadable pool cache {path}: {exc}")
        if (not isinstance(data, dict)
                or data.get("kind") != _POOL_CACHE_KIND
                or data.get("format") != _POOL_CACHE_VERSION):
            raise ConfigurationError(
                f"{path} is not a version-{_POOL_CACHE_VERSION} pool cache")
        stored_crc = data.pop("crc", None)
        computed = _cache_crc(data)
        if stored_crc != computed:
            raise ConfigurationError(
                f"pool cache {path} failed its CRC check "
                f"(stored {stored_crc}, computed {computed})")
        if data.get("n") != format(self.public_key.n, "x"):
            raise ConfigurationError(
                f"pool cache {path} was produced under a different key")
        adopted = self.obfuscators.adopt_factors(
            [int(factor, 16) for factor in data.get("obfuscators", [])])
        target.unlink()
        return adopted

    # -- introspection ---------------------------------------------------------
    def remaining(self) -> dict[str, int]:
        """Factors currently available, as a one-entry per-pool mapping."""
        return {"obfuscators": self.obfuscators.remaining}

    def stats(self) -> dict[str, object]:
        """Pool effectiveness and offline-work accounting.

        The pool's counters are one snapshot under its lock, so concurrent
        online takers can never produce a torn view.  ``hits`` and ``misses``
        are the per-name mappings of the former typed pools and are now
        **always empty** (every draw is an obfuscator draw); they stay so the
        daemons' ``/stats`` consumers and ``benchmarks/e2e/metrics.py`` keep
        reading, and can go once those reads do.
        """
        pool = self.obfuscators.stats()
        return {
            "remaining": {"obfuscators": pool["remaining"]},
            "hits": {},
            "misses": {},
            "obfuscator_hits": pool["hits"],
            "obfuscator_misses": pool["misses"],
            "offline_encryptions": self.offline.encryptions,
        }

    def pool_hit_total(self) -> int:
        """Total pooled factors consumed."""
        return self.obfuscators.stats()["hits"]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"PrecomputeEngine(remaining={self.obfuscators.remaining}, "
                f"offline={self.offline.encryptions})")
