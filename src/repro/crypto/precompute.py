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

__all__ = ["PrecomputeConfig", "PrecomputeEngine", "QueryLookahead",
           "MASK_ZN", "MASK_SBD", "MASK_SHORT", "MASK_SLOT",
           "STATISTICAL_SECURITY",
           "mask_range"]

#: snapshot kind of the on-disk pool cache (see
#: :meth:`PrecomputeEngine.save_pools`)
_POOL_CACHE_KIND = "precompute-pool-cache"

#: ``sigma``: a mask of ``bits + sigma`` bits hides a ``bits``-bit value
#: from the key holder up to statistical distance ``2**-sigma`` — the width
#: of :data:`MASK_SHORT` and of SMIN's domain
#: (:meth:`~repro.protocols.smin.SecureMinimum.domain_fits`).
STATISTICAL_SECURITY = 40

#: Additive-mask kinds (the sampling range each protocol requires).
MASK_ZN = "zn"            # r uniform in [0, N)         — SM, delivery (Bob's
                          #                               shares: no C1 power
                          #                               strips them)
MASK_SBD = "sbd"          # r uniform in [0, sbd_upper) — SBD round masks,
                          #                               SMIN's masked difference
MASK_SHORT = "short"      # N - r, r uniform in [1, 2^(bits+sigma)] — every
                          #   value C2 may decrypt and C1 strips with a power:
                          #   SMIN's selection, extraction
MASK_SLOT = "slot"        # s in [2^(bits-1), 2^(bits-1) + 2^(bits+sigma)) —
                          #   SSED's packed slots: s - d in (0, 2^(bits+1+sigma))
                          #   for a bits-bit signed d, no borrow between slots

#: process-wide fallback randomness for engines without an explicit rng
_MODULE_RNG = Random()


def mask_range(kind: str, n: int, sbd_upper: int | None = None,
               bits: int | None = None) -> tuple[int, int]:
    """The half-open range ``[lower, upper)`` a mask of ``kind`` is drawn from.

    The one rule for both mask sources (:meth:`PrecomputeEngine.take_masks`
    and the engine-less :meth:`~repro.protocols.base.TwoPartyProtocol.
    take_masks`); ``sbd_upper`` is SBD's ``N - 2^l`` or SMIN's ``N -
    2^(L+1)`` and required for that kind.

    A :data:`MASK_SHORT` mask ``m = N - r`` hides a ``bits``-bit value
    ``v``: ``v + m = v - r mod N`` with ``r`` uniform in ``[1,
    2**(bits + sigma)]`` is within ``2**-sigma`` of a distribution that does
    not depend on ``v``, and whoever strips ``m`` with a power does so with
    the short exponent ``r`` (``N - m``, or ``-m mod N``).  A
    :data:`MASK_SLOT` mask ``s`` hides a ``bits``-bit signed value ``d``
    (``|d| < 2**(bits-1)``) the same way as ``s - d``, which is positive
    and below ``2**(bits + 1 + sigma)``: a packed slot never borrows from
    its neighbour.  Both spans are capped at ``N``, where the kind is
    uniform mod ``N``, so toy keys work.
    """
    if kind == MASK_ZN:
        return 0, n
    if kind == MASK_SBD:
        if sbd_upper is None:
            raise ConfigurationError("SBD masks require sbd_upper")
        return 0, sbd_upper
    if kind == MASK_SHORT:
        if bits is None or bits < 1:
            raise ConfigurationError("short masks require a positive bits")
        return n - min(1 << (bits + STATISTICAL_SECURITY), n), n
    if kind == MASK_SLOT:
        if bits is None or bits < 1:
            raise ConfigurationError("slot masks require a positive bits")
        lower = 1 << (bits - 1)
        return lower, lower + min(1 << (bits + STATISTICAL_SECURITY), n)
    raise ConfigurationError(f"unknown mask kind {kind!r}")


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

    def encrypt_batch(self, values: Sequence[int]) -> list[Ciphertext]:
        """Vectorized pooled encryption (the key's kernel past the store)."""
        return self.key.encrypt_batch(list(values), rng=self.rng, pool=self)

    def take_masks(self, count: int, kind: str = MASK_ZN,
                   sbd_upper: int | None = None, bits: int | None = None
                   ) -> list[tuple[int, Ciphertext]]:
        """``count`` fresh additive masks ``(r, E(r))`` of one kind.

        Sampled in the kind's :func:`mask_range` (``bits`` is the masked
        values' width, for :data:`MASK_SHORT`) and encrypted in one
        batch-kernel call: one pooled factor and one multiplication per mask
        while the store lasts, the key's own kernel past it — never a reused
        factor.
        """
        lower, upper = mask_range(kind, self.public_key.n, sbd_upper, bits)
        rng = self.rng if self.rng is not None else _MODULE_RNG
        masks = [rng.randrange(lower, upper) for _ in range(count)]
        return list(zip(masks, self.encrypt_batch(masks)))

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

    The factors come from a ``stream`` of their own, apart from ``rng``
    (the party's, which samples the masks), in FIFO order: a factor not
    computed ahead is computed from the stream at its draw, so the query's
    ``i``-th factor is the stream's ``i``-th however long the peer took,
    and a seeded query draws the same values either way.  ``hits`` counts
    the factors that were ready when drawn, ``misses`` those computed at
    the draw, ``offline_encryptions`` those computed ahead.
    """

    def __init__(self, key: "PaillierPublicKey | PaillierPrivateKey",
                 rng: Random, stream: Random | None, budget: int) -> None:
        super().__init__(key, rng=rng,
                         config=PrecomputeConfig(obfuscators=budget))
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
