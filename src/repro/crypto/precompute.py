"""Offline/online split: a precomputation engine for the query hot path.

Every encryption the SkNN protocols perform is ``(1 + v*N) * r^N mod N^2``,
and only the obfuscation factor ``r^N`` costs an exponentiation — it does not
depend on ``v``.  A serving system can therefore compute a stock of factors in
*idle time* and reduce the online cost of a query to decryptions, the few
genuinely query-dependent exponentiations, and modular multiplications: a
pooled encryption is one multiplication whatever it encrypts (a protocol
constant, an additive mask, a re-encrypted square sum).

:class:`PrecomputeEngine` is that producer/consumer boundary: **one** store
of single-use factors per party plus its lifecycle — refill to a target,
save/load across restarts — and one set of hit, miss
and offline counts.  The store is filled by its key's one obfuscator source
(:meth:`~repro.crypto.paillier.PaillierPublicKey.obfuscators`, the
fixed-base ``h**s``; the private key's CRT form of the same power for the
key holder), the very call the owning party's ``encrypt_batch`` makes for
what the pool does not cover.  So there are two draw tiers (pool, then the
same kernel inline), a pooled factor costs offline what it would have cost
online, and a drained engine is never slower than no engine.

Every factor is handed out **exactly once**.  Consuming one advances the
key's :class:`~repro.crypto.paillier.OperationCounter` exactly like the
non-pooled path would, so operation accounting (and the Section 4.4 cost
model) stays comparable — the engine's hit count records how many of those
logical encryptions were actually paid offline, and its offline count the
precomputation work (one obfuscator per factor).

Producers: call :meth:`PrecomputeEngine.refill` from any idle-time hook (the
serving layer's scheduler does this between batches).

:class:`QueryLookahead` is the engine of one query, not a pool: a cloud
daemon without a provisioned engine builds one per query, empty, and its
party computes the query's next factors in it while it waits on the peer.

Either class works over any key with an ``obfuscators(count, rng)``
source: over a DGK key (:mod:`repro.crypto.dgk`) its factors are SMIN's
re-randomizers ``h^r``, drawn through the party's ``dgk_engine``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Sequence

from repro.crypto.paillier import (
    Ciphertext,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.exceptions import ConfigurationError, CorruptStateError

__all__ = ["PrecomputeConfig", "PrecomputeEngine", "QueryLookahead"]

#: snapshot kind of the on-disk pool cache (see
#: :meth:`PrecomputeEngine.save_pools`)
_POOL_CACHE_KIND = "precompute-pool-cache"

@dataclass(frozen=True)
class PrecomputeConfig:
    """The pool's target size (and the refill batch granularity).

    One number to size: every pooled item is an ``r^N`` factor, good for any
    encryption its party performs.  The deployments derive it from the cost
    model: a party's encryptions per query times the queries to cover
    (:func:`repro.analysis.cost_model.pool_targets`).
    """

    obfuscators: int = 448
    #: largest number of factors one :meth:`PrecomputeEngine.refill` step
    #: computes before re-checking the deficit (keeps idle-slot refills short).
    refill_batch: int = 64


class PrecomputeEngine:
    """One party's store of precomputed obfuscators with its accounting.

    An engine belongs to *one* party: its store is filled with that party's
    randomness, so in the paper's two-cloud model C1 and C2 each run their
    own engine (see :meth:`~repro.network.party.TwoPartySetting.
    attach_engine`).  Handing one party material precomputed by the other
    would let the producer link or unmask the consumer's ciphertexts.

    Args:
        key: the owning party's key — the public key for C1 (and Bob), the
            private key for C2, whose refills then take the CRT kernel.
        rng: optional deterministic randomness source (tests only).
        config: pool target; defaults to :class:`PrecomputeConfig`.

    Attributes:
        hits: factors handed out to encryptions.
        misses: encryptions the store could not serve (it was dry — a sign
            the target is too small for the load); they took the key's
            kernel inline.
        offline_encryptions: factors refills computed.
    """

    def __init__(self, key: "PaillierPublicKey | PaillierPrivateKey",
                 rng: Random | None = None,
                 config: PrecomputeConfig | None = None) -> None:
        self.key = key
        self.public_key = (key.public_key if isinstance(key, PaillierPrivateKey)
                           else key)
        self.rng = rng
        self.config = config if config is not None else PrecomputeConfig()
        self._factors: deque[int] = deque()
        self._lock = threading.Lock()
        # One producer at a time: serializes refills so two concurrent
        # producers cannot both observe the same deficit and overfill.
        self._refill_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.offline_encryptions = 0

    # -- offline production ---------------------------------------------------
    def deficit(self) -> int:
        """How many factors the store is short of its configured target."""
        with self._lock:
            return max(self.config.obfuscators - len(self._factors), 0)

    def refill(self, budget: int | None = None) -> int:
        """Fill the store toward its target; returns the factors computed.

        This is the producer step (one :meth:`~repro.crypto.paillier.
        PaillierPublicKey.obfuscators` factor each) and is meant to run off
        the query critical path — from an idle scheduler slot or setup
        code.  ``budget`` caps the
        number of factors computed in this call (``None`` = fill to
        target); they are computed ``refill_batch`` at a time and *outside*
        the store lock, so concurrent online takers never wait on a refill.
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
                with self._lock:
                    self.offline_encryptions += step
                fresh = self.key.obfuscators(step, self.rng)
                with self._lock:
                    self._factors.extend(fresh)
                produced += step
        return produced

    def warm(self) -> int:
        """Fill the store to its target (alias for an unbounded refill)."""
        return self.refill(None)

    def adopt(self, factors: "list[int]") -> int:
        """Add factors computed elsewhere (a pool cache, a chunk task's
        slice); they are not this engine's offline work.  Returns the
        number adopted."""
        with self._lock:
            self._factors.extend(factors)
        return len(factors)

    def prefetch(self) -> bool:
        """Compute one factor while the owning party waits on its peer;
        returns whether it did.  A provisioned engine never does: its
        refills run off the query path."""
        return False

    # -- online consumers ------------------------------------------------------
    def take_available(self, count: int) -> "list[int]":
        """Pop up to ``count`` factors *without* computing missing ones.

        The one draw: the batch encryption kernel covers the shortfall with
        the key's own source, so a dry store degrades gracefully instead of
        stalling the hot path, and the in-process scan ships what it pops
        to its chunk workers.  ``hits`` advances by the number served,
        ``misses`` by the shortfall.
        """
        with self._lock:
            served = min(count, len(self._factors))
            taken = [self._factors.popleft() for _ in range(served)]
            self.hits += served
            self.misses += count - served
        return taken

    def take_masks(self, masks: Sequence[int]
                   ) -> "list[tuple[int, Ciphertext]]":
        """``(r, E(r))`` for masks drawn elsewhere, one pooled factor each.

        Samples nothing: the protocol layer draws every mask
        (:meth:`~repro.protocols.base.TwoPartyProtocol.take_masks`) and
        encrypts it through its party, whose engine this is.  Kept as the
        store's own traced entry point (``benchmarks/e2e/trace.py`` wraps
        it by name).
        """
        return list(zip(masks, self.key.encrypt_batch(
            list(masks), rng=self.rng, pool=self)))

    # -- persistence -----------------------------------------------------------
    def save_pools(self, path: "str | Path") -> int:
        """Persist the warmed pool to ``path``; returns the factors saved.

        The file is a :func:`~repro.resilience.durability.write_snapshot`
        document (versioned, CRC-checked, written atomically) whose payload
        ``{n, obfuscators}`` binds the factors to the public key's modulus
        (a cache for a different key is rejected at load).  The pool is
        *drained* into the file, so a factor is either in memory or on
        disk, never both — the single-use guarantee survives the round trip.
        Meant to run at daemon shutdown (``--pool-cache``) so a restarted
        party starts hot.
        """
        # Function-level import: crypto is a lower layer than resilience
        # (resilience's chaos module imports transport framing, which
        # imports crypto serialization).
        from repro.resilience.durability import write_snapshot

        # Drained, not copied: a factor is in memory or on disk, never both.
        with self._lock:
            factors = list(self._factors)
            self._factors.clear()
        write_snapshot(path, _POOL_CACHE_KIND, {
            "n": format(self.public_key.n, "x"),
            "obfuscators": [format(factor, "x") for factor in factors],
        })
        return len(factors)

    def load_pools(self, path: "str | Path") -> int:
        """Reload a pool saved by :meth:`save_pools`; returns factors adopted.

        The cache file is **deleted** after a successful load: the stored
        randomness is single-use, and removing the file guarantees a crashed
        (or concurrently started) party can never replay it.  Loading fails
        closed with :class:`~repro.exceptions.ConfigurationError` — file left
        in place, nothing adopted — on a missing, unreadable or torn file,
        another snapshot kind or format, a wrong CRC, or a different
        modulus: bad randomness here would silently weaken every masking
        step.
        """
        from repro.resilience.durability import read_snapshot

        try:
            data = read_snapshot(path, _POOL_CACHE_KIND)
        except CorruptStateError as exc:
            raise ConfigurationError(
                f"unreadable pool cache {path}: {exc}") from exc
        if data is None:
            raise ConfigurationError(f"unreadable pool cache {path}: missing")
        if data.get("n") != format(self.public_key.n, "x"):
            raise ConfigurationError(
                f"pool cache {path} was produced under a different key")
        adopted = self.adopt(
            [int(factor, 16) for factor in data.get("obfuscators", [])])
        Path(path).unlink()
        return adopted

    # -- introspection ---------------------------------------------------------
    def remaining(self) -> dict[str, int]:
        """Factors currently available, as a one-entry per-pool mapping."""
        with self._lock:
            return {"obfuscators": len(self._factors)}

    def stats(self) -> dict[str, object]:
        """Pool effectiveness and offline-work accounting.

        One snapshot under the store lock, so concurrent online takers can
        never produce a torn view.  ``hits`` and ``misses`` are the per-name
        mappings of the former typed pools and are now **always empty**
        (every draw is an obfuscator draw); they stay so the daemons'
        ``/stats`` consumers and ``benchmarks/e2e/metrics.py`` keep reading,
        and can go once those reads do.
        """
        with self._lock:
            return {
                "remaining": {"obfuscators": len(self._factors)},
                "hits": {},
                "misses": {},
                "obfuscator_hits": self.hits,
                "obfuscator_misses": self.misses,
                "offline_encryptions": self.offline_encryptions,
            }

    def pool_hit_total(self) -> int:
        """Total pooled factors consumed."""
        with self._lock:
            return self.hits

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"PrecomputeEngine(remaining={len(self._factors)}, "
                f"offline={self.offline_encryptions})")


class QueryLookahead(PrecomputeEngine):
    """One query's fresh obfuscators, computed while its party waits.

    Built empty for one query and dropped when it ends: a store of the
    factors this query is about to draw, not a pool.  :meth:`~repro.
    network.party.Party.receive` calls :meth:`prefetch` while the peer's
    reply is not yet queued — over the in-memory channel it always is, so
    nothing is computed there — and ``budget``, the party's encryptions for
    this query in the cost model, bounds what is computed: no factor before
    the query's first send, none left after its last receive.

    The factors come from a ``stream`` of their own, apart from the
    party's rng (which samples the masks), in FIFO order: a factor not
    computed ahead is computed from the stream at its draw, so the query's
    ``i``-th factor is the stream's ``i``-th however long the peer took,
    and a seeded query draws the same values either way.  ``hits`` counts
    the factors that were ready when drawn, ``misses`` those computed at
    the draw, ``offline_encryptions`` those computed ahead.
    """

    def __init__(self, key: "PaillierPublicKey | PaillierPrivateKey",
                 stream: Random | None, budget: int) -> None:
        super().__init__(key, config=PrecomputeConfig(obfuscators=budget))
        self.stream = stream

    def prefetch(self) -> bool:
        """Compute the query's next factor; False once its budget is spent."""
        with self._lock:
            if (self.offline_encryptions + self.misses
                    >= self.config.obfuscators):
                return False
            self.offline_encryptions += 1
        factors = self.key.obfuscators(1, self.stream)
        with self._lock:
            self._factors.extend(factors)
        return True

    def take_available(self, count: int) -> "list[int]":
        """``count`` factors: those computed ahead, then the rest from the
        stream — a lookahead never falls short."""
        taken = super().take_available(count)
        taken.extend(self.key.obfuscators(count - len(taken), self.stream))
        return taken
