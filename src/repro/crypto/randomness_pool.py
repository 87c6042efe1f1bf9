"""Precomputed Paillier randomness for hot serving paths.

Paillier encryption under the ``g = N + 1`` fast path is

    ``E(m) = (1 + m*N) * r^N  mod N^2``

where the modular exponentiation ``r^N mod N^2`` (the *obfuscation factor*)
dominates the cost — the ``(1 + m*N)`` part is a single multiplication.  The
factor does not depend on the message, so a serving system can compute a stock
of factors *off the hot path* (at deployment time, or between batches) and
turn every hot-path encryption into one modular multiplication.

Every factor is handed out **exactly once** (popped from the store): reusing
an obfuscation factor across two encryptions would make the pair linkable,
which breaks the semantic-security property the SkNN protocols rely on.  The
pool is thread-safe so concurrent query sessions can share one.  There is one
draw: :meth:`RandomnessPool.take_available`, reached through the batch
encryption kernel (``encrypt_batch(pool=)``), which covers a dry pool with the
key's fixed-base comb — never a textbook ``r^N``.

The stock of a :class:`~repro.crypto.precompute.PrecomputeEngine`, the
per-shard slices of :mod:`repro.core.parallel`'s chunk workers and
(optionally) Bob-side query encryption in
:class:`~repro.core.roles.QueryClient`.
"""

from __future__ import annotations

import threading
from collections import deque
from random import Random

from repro.crypto import numtheory as nt
from repro.crypto.backend import get_backend
from repro.crypto.paillier import Ciphertext, PaillierPublicKey
from repro.exceptions import ConfigurationError

__all__ = ["RandomnessPool"]

#: Default number of factors precomputed by the constructor.
DEFAULT_POOL_SIZE = 128


class RandomnessPool:
    """A pool of single-use Paillier obfuscation factors ``r^N mod N^2``.

    Args:
        public_key: the Paillier public key the factors belong to.
        size: the pool's target: the number of factors the constructor
            precomputes and the default :meth:`refill` count.
        rng: optional deterministic randomness source (tests only).
        precompute: when ``False`` the constructor does not precompute; call
            :meth:`refill` explicitly (useful when construction must be cheap).

    Attributes:
        hits: hot-path requests served from the precomputed store.
        misses: hot-path requests the pool could not serve (it was empty —
            a sign ``size`` is too small for the load); the batch kernel
            covered them with the key's fixed-base comb.
    """

    def __init__(self, public_key: PaillierPublicKey, size: int = DEFAULT_POOL_SIZE,
                 rng: Random | None = None, precompute: bool = True) -> None:
        if size < 1:
            raise ConfigurationError("randomness pool size must be >= 1")
        self.public_key = public_key
        self.size = size
        self.rng = rng
        self._factors: deque[int] = deque()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.precomputed_total = 0
        if precompute:
            self.refill()

    # -- precomputation (off the hot path) ----------------------------------
    def _fresh_factor(self) -> int:
        """Compute one obfuscation factor (one modular exponentiation)."""
        r_value = nt.random_in_zn_star(self.public_key.n, self.rng)
        return get_backend().powmod(r_value, self.public_key.n,
                                    self.public_key.nsquare)

    def refill(self, count: int | None = None) -> int:
        """Top the store up by ``count`` factors (default: the pool size).

        This is the expensive step (one ``r^N mod N^2`` exponentiation per
        factor) and is meant to run off the hot path.  Returns the number of
        factors computed.
        """
        count = self.size if count is None else count
        fresh = [self._fresh_factor() for _ in range(count)]
        with self._lock:
            self._factors.extend(fresh)
            self.precomputed_total += len(fresh)
        return len(fresh)

    @classmethod
    def from_factors(cls, public_key: PaillierPublicKey,
                     factors: "list[int]") -> "RandomnessPool":
        """Wrap already-computed factors (e.g. a pool slice shipped to a
        worker process) in a pool; no precomputation happens locally."""
        pool = cls(public_key, size=max(len(factors), 1), precompute=False)
        with pool._lock:
            pool._factors.extend(factors)
        return pool

    # -- persistence support -------------------------------------------------
    def drain_factors(self) -> "list[int]":
        """Remove and return every stored factor (for persisting to disk).

        Draining (rather than copying) preserves the single-use guarantee:
        a factor is either in memory or in the cache file, never both.
        """
        with self._lock:
            taken = list(self._factors)
            self._factors.clear()
        return taken

    def adopt_factors(self, factors: "list[int]") -> int:
        """Add already-computed factors (e.g. reloaded from a pool cache).

        The factors count toward ``precomputed_total`` (they were computed
        offline, just not by this process).  Returns the number adopted.
        """
        with self._lock:
            self._factors.extend(factors)
            self.precomputed_total += len(factors)
        return len(factors)

    # -- hot path -----------------------------------------------------------
    def take_available(self, count: int) -> "list[int]":
        """Pop up to ``count`` factors *without* computing missing ones.

        The batch encryption path uses this to consume whatever the pool has
        and cover the shortfall with its own (comb-windowed) obfuscators, so
        a dry pool degrades gracefully instead of stalling the hot path.
        ``hits`` advances by the number served, ``misses`` by the shortfall.
        """
        with self._lock:
            served = min(count, len(self._factors))
            taken = [self._factors.popleft() for _ in range(served)]
            self.hits += served
            self.misses += count - served
        return taken

    def encrypt_batch(self, values: "list[int]") -> "list[Ciphertext]":
        """Vectorized pooled encryption (delegates to the key's batch kernel).

        Available factors are consumed first; any shortfall falls back to the
        key's fixed-base comb path, so the call never blocks on a dry pool.
        Counter parity with the non-pooled batch path is exact.
        """
        return self.public_key.encrypt_batch(values, rng=self.rng, pool=self)

    # -- introspection ------------------------------------------------------
    @property
    def remaining(self) -> int:
        """Factors currently available without recomputation."""
        with self._lock:
            return len(self._factors)

    def stats(self) -> dict[str, int]:
        """Pool effectiveness counters (for reports and benchmarks).

        The whole snapshot is taken under the pool lock, so the returned
        fields are mutually consistent even while the hot path is popping
        factors concurrently.
        """
        with self._lock:
            return {
                "remaining": len(self._factors),
                "hits": self.hits,
                "misses": self.misses,
                "precomputed_total": self.precomputed_total,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"RandomnessPool(size={self.size}, remaining={self.remaining}, "
                f"hits={self.hits}, misses={self.misses})")
