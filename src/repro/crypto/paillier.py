"""Paillier cryptosystem with the homomorphic operations used by the paper.

The SkNN protocols (Elmehdwi, Samanthula & Jiang, ICDE 2014) assume the data
owner encrypts every attribute value with the Paillier cryptosystem
[Paillier, EUROCRYPT'99].  This module provides a from-scratch implementation
with the three properties the paper relies on (Section 2.3):

* homomorphic addition:       ``E(a) * E(b) mod N^2  == E(a + b)``
* homomorphic scalar multiply: ``E(a) ** b  mod N^2  == E(a * b)``
* semantic security (probabilistic encryption with a fresh random nonce).

Implementation notes
--------------------
* The generator is fixed to ``g = N + 1`` which allows the encryption
  ``g^m = 1 + m*N (mod N^2)`` fast path and is standard practice.
* Decryption uses the CRT over ``p^2`` and ``q^2`` which is roughly 3x faster
  than the textbook formula; the naive path is kept for the ablation bench.
* Every public/private key tracks how many encryptions, decryptions and
  exponentiations have been performed.  The paper's complexity analysis
  (Section 4.4) is expressed in exactly those operation counts, so the
  counters let the test-suite check the analytic model against reality.
* Negative intermediate values (e.g. ``x_i - y_i`` inside SSED) are
  represented as elements of ``Z_N`` in the upper half of the range, exactly
  as the paper's ``N - x  ==  -x (mod N)`` convention.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import used for annotations only
    from repro.crypto.dgk import DGKPrivateKey, DGKPublicKey
    from repro.crypto.precompute import PrecomputeEngine

from repro.crypto import numtheory as nt
from repro.crypto.backend import get_backend
from repro.exceptions import (
    DecryptionError,
    EncryptionError,
    KeyGenerationError,
    KeyMismatchError,
)

__all__ = [
    "OperationCounter",
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "PaillierKeyPair",
    "Ciphertext",
    "generate_keypair",
    "slots",
    "counting_scope",
    "active_counting_scope",
    "DEFAULT_KEY_SIZE",
]

#: Default modulus size (bits).  The paper evaluates K = 512 and K = 1024;
#: tests use smaller keys for speed and benchmarks choose explicitly.
DEFAULT_KEY_SIZE = 512

# Thread-local counting scope: while a scope is active on a thread, every
# counter *increment* performed on that thread (through any key object) is
# additionally teed into the scope's counter.  This is how a daemon serving
# several pipelined queries on worker threads keeps per-query operation
# counts exact: the shared root-key counters keep their cumulative totals,
# and each query's thread-scoped counter sees exactly its own work —
# including pool consumption, which is charged to the root key at consume
# time deep inside the precompute engine.
_COUNTING_SCOPE = threading.local()

# One lock for every increment: a shared root counter is raised by several
# threads at once, and ``x += n`` on it is a read-modify-write.
_COUNT_LOCK = threading.Lock()


def active_counting_scope() -> "OperationCounter | None":
    """The :class:`OperationCounter` scoped to this thread, or ``None``."""
    return getattr(_COUNTING_SCOPE, "counter", None)


@contextmanager
def counting_scope(counter: "OperationCounter") -> Iterator["OperationCounter"]:
    """Tee this thread's crypto-operation increments into ``counter``.

    Scopes nest by shadowing: the innermost scope on a thread receives the
    increments (exactly once — there is no cascading), and the previous
    scope is restored on exit.  Only :meth:`OperationCounter.add` tees, so
    a ``reset()`` on a root counter never subtracts from a scope.
    """
    previous = getattr(_COUNTING_SCOPE, "counter", None)
    _COUNTING_SCOPE.counter = counter
    try:
        yield counter
    finally:
        _COUNTING_SCOPE.counter = previous


@dataclass
class OperationCounter:
    """Counts the primitive cryptographic operations performed with a key.

    The paper reports protocol complexity in terms of *encryptions*,
    *decryptions* and *exponentiations* (Section 4.4).  A counter instance is
    attached to each key object, and protocol-level statistics aggregate them.
    Increments go through :meth:`add`, which also raises ``parent`` (a DGK
    key's counter raises its Paillier key's) and lands once in the thread's
    active :func:`counting_scope` — how per-query statistics stay exact when
    several queries share one key on different threads.
    """

    encryptions: int = 0
    decryptions: int = 0
    exponentiations: int = 0
    homomorphic_additions: int = 0
    parent: "OperationCounter | None" = field(default=None, repr=False,
                                              compare=False)

    def add(self, name: str, count: int) -> None:
        """Raise ``name`` by ``count`` here, on every parent, and once in
        this thread's scope — atomically with respect to other threads."""
        scope = getattr(_COUNTING_SCOPE, "counter", None)
        with _COUNT_LOCK:
            counter = self
            while counter is not None:
                setattr(counter, name, getattr(counter, name) + count)
                counter = counter.parent
            if scope is not None and scope is not self:
                setattr(scope, name, getattr(scope, name) + count)

    def reset(self) -> None:
        """Zero all counters."""
        self.encryptions = 0
        self.decryptions = 0
        self.exponentiations = 0
        self.homomorphic_additions = 0

    def snapshot(self) -> dict[str, int]:
        """Return the current counts as a plain dictionary."""
        return {
            "encryptions": self.encryptions,
            "decryptions": self.decryptions,
            "exponentiations": self.exponentiations,
            "homomorphic_additions": self.homomorphic_additions,
        }

    def merged_with(self, other: "OperationCounter") -> "OperationCounter":
        """Return a new counter holding the sum of ``self`` and ``other``."""
        return OperationCounter(
            encryptions=self.encryptions + other.encryptions,
            decryptions=self.decryptions + other.decryptions,
            exponentiations=self.exponentiations + other.exponentiations,
            homomorphic_additions=(
                self.homomorphic_additions + other.homomorphic_additions
            ),
        )


class PaillierPublicKey:
    """Paillier public key ``pk = (N, g)`` with ``g = N + 1``.

    The public key performs encryption and all ciphertext-space homomorphic
    operations.  It never needs (and never holds) the factorization of ``N``.
    """

    def __init__(self, n: int) -> None:
        if n < 15:
            raise KeyGenerationError(f"modulus too small: {n}")
        self.n = n
        self.nsquare = n * n
        self.g = n + 1
        #: maximum plaintext strictly below this bound
        self.max_plaintext = n
        self.counter = OperationCounter()
        # Obfuscator base h = y**N and its fixed-base exponentiator, made
        # lazily by the batch encryption path (see _windowed_obfuscators).
        self._obfuscator_base = None
        self._obfuscator_comb = None
        self._obfuscator_lock = threading.Lock()

    # -- representation ----------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PaillierPublicKey(bits={self.n.bit_length()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PaillierPublicKey) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("PaillierPublicKey", self.n))

    @property
    def key_size(self) -> int:
        """Modulus size in bits (the paper's parameter ``K``)."""
        return self.n.bit_length()

    # -- plaintext encoding -------------------------------------------------
    def encode_signed(self, value: int) -> int:
        """Map a (possibly negative) integer into ``Z_N``.

        Negative values are represented as ``N - |value|`` which is the
        paper's ``-x == N - x (mod N)`` convention.  Values must satisfy
        ``|value| < N / 2`` so that encoding is unambiguous.
        """
        if value >= 0:
            if value >= self.n:
                raise EncryptionError(
                    f"plaintext {value} out of range for modulus of "
                    f"{self.key_size} bits"
                )
            return value
        if -value >= self.n // 2:
            raise EncryptionError(
                f"negative plaintext {value} too large in magnitude for modulus"
            )
        return self.n + value

    def decode_signed(self, value: int) -> int:
        """Inverse of :meth:`encode_signed` (values above N/2 are negative)."""
        value %= self.n
        if value > self.n // 2:
            return value - self.n
        return value

    # -- encryption ---------------------------------------------------------
    def raw_encrypt(self, plaintext: int, r_value: int | None = None,
                    rng: Random | None = None) -> int:
        """Encrypt ``plaintext`` (already reduced mod N) to a raw ciphertext.

        ``c = (1 + m*N) * r^N  mod N^2`` using the ``g = N+1`` fast path.

        Args:
            plaintext: message in ``[0, N)``.
            r_value: optional explicit nonce in ``Z_N^*`` (used by tests and
                worked examples); when omitted a fresh random nonce is drawn.
            rng: optional deterministic randomness source.
        """
        backend = get_backend()
        m = plaintext % self.n
        nude = (1 + m * self.n) % self.nsquare
        if r_value is None:
            r_value = nt.random_in_zn_star(self.n, rng)
        obfuscator = backend.powmod(r_value, self.n, self.nsquare)
        self.counter.add("encryptions", 1)
        return backend.mulmod(nude, obfuscator, self.nsquare)

    def encrypt(self, value: int, r_value: int | None = None,
                rng: Random | None = None) -> "Ciphertext":
        """Encrypt a signed integer and wrap it in a :class:`Ciphertext`."""
        encoded = self.encode_signed(value)
        return Ciphertext(self, self.raw_encrypt(encoded, r_value, rng))

    def encrypt_vector(self, values: Sequence[int],
                       rng: Random | None = None) -> list["Ciphertext"]:
        """Attribute-wise encryption of a vector (the paper's ``Epk(t_i)``).

        Routes through :meth:`encrypt_batch`, so vector callers get the
        fixed-base obfuscators for free instead of a per-element Python loop
        over the scalar path.
        """
        return self.encrypt_batch(list(values), rng=rng)

    # -- ciphertext-space helpers -------------------------------------------
    def raw_add(self, c1: int, c2: int) -> int:
        """Homomorphic addition of two raw ciphertexts."""
        self.counter.add("homomorphic_additions", 1)
        return get_backend().mulmod(c1, c2, self.nsquare)

    def _raw_power(self, c: int, exponent: int) -> int:
        """``c ** exponent mod N**2`` for an exponent already reduced mod N.

        The one place that prices a single homomorphic negation: ``exponent
        == N - 1`` returns the modular inverse (a vector of them shares one
        inversion, see :meth:`scalar_mul_batch`).  ``E(a)**-1 = g**-a *
        (r**-1)**N`` is a valid encryption of ``-a`` — like ``E(a)**(N-1)``
        a deterministic public function of ``E(a)`` — at a small fraction of
        the cost (about 18x less at K=512 on CPython).  Callers *count* it
        as the one exponentiation it replaces in the paper's accounting
        (Section 4.4).  A non-unit (``0``, a multiple of a prime factor —
        never a valid ciphertext) has no inverse and raises
        :class:`CryptoError`.  Exponents 0 to 3 — SMIN's ``E(z_L)**1``
        and the cube of its marker — are answered here (``1``, ``c``, one or
        two multiplications), not by a backend call.
        """
        if exponent <= 1:
            return c % self.nsquare if exponent else 1
        if exponent <= 3:
            return pow(c, exponent, self.nsquare)
        backend = get_backend()
        if exponent == self.n - 1:
            return backend.invert(c, self.nsquare)
        return backend.powmod(c, exponent, self.nsquare)

    def raw_scalar_mul(self, c: int, scalar: int) -> int:
        """Homomorphic multiplication of a raw ciphertext by a plaintext scalar.

        The scalar is reduced into ``Z_N`` first, so negative scalars follow
        the paper's ``-x == N - x (mod N)`` convention automatically, and a
        scalar congruent to ``-1`` is priced as a negation
        (:meth:`_raw_power`) — for every :class:`Ciphertext` operator.
        """
        raw = self._raw_power(c, scalar % self.n)
        self.counter.add("exponentiations", 1)
        return raw

    # -- batched kernel ------------------------------------------------------
    def _check_batch_key(self, ciphertexts: Sequence["Ciphertext"]) -> None:
        """Reject ciphertexts produced under a different key, loudly."""
        for ciphertext in ciphertexts:
            if ciphertext.public_key != self:
                raise KeyMismatchError(
                    "cannot combine ciphertexts under different keys")

    def obfuscator_base(self, rng: Random | None = None) -> int:
        """The key's obfuscator base ``h = y**N mod N**2``, drawn once.

        ``y`` is uniform in ``Z_N^*``, drawn lazily and thread-safely on
        first use from a private generator seeded with ``rng``'s state (the
        system's CSPRNG when ``rng`` is None).  ``rng`` itself does not
        advance, so a party's random stream is the same whether or not the
        key was used before; twin keys asked with equal states still get
        equal bases.  A fresh obfuscator is ``h**s = (y**s)**N`` for a
        random ``s``, i.e. an ordinary obfuscation factor with nonce ``r =
        y**s``, at a fraction of a textbook ``r**N`` with a fresh ``r``.
        Nonces are drawn from the cyclic group generated by ``y`` rather
        than all of ``Z_N^*``; distinguishing the two is believed hard for
        RSA-type moduli (the standard assumption behind fixed-base Paillier
        precomputation), and each ``s`` is used exactly once.
        """
        if self._obfuscator_base is None:
            with self._obfuscator_lock:
                if self._obfuscator_base is None:
                    private = None if rng is None \
                        else Random(str(rng.getstate()))
                    y = nt.random_in_zn_star(self.n, private)
                    self._obfuscator_base = get_backend().powmod(
                        y, self.n, self.nsquare)
        return self._obfuscator_base

    def _windowed_obfuscators(self, rng: Random | None = None):
        """The per-key fixed-base exponentiator for obfuscator generation.

        Built once per key: the active backend's fixed-base exponentiator
        of :meth:`obfuscator_base` (``BigintBackend.fixed_base``: a comb
        table where multiplications are the cheap operation, a plain
        ``powmod`` where the power is native).  The key holder has a
        cheaper one (:meth:`PaillierPrivateKey.crt_obfuscators`).
        """
        if self._obfuscator_comb is None:
            h = self.obfuscator_base(rng)
            with self._obfuscator_lock:
                if self._obfuscator_comb is None:
                    self._obfuscator_comb = get_backend().fixed_base(
                        h, self.nsquare, self.n.bit_length())
        return self._obfuscator_comb

    def obfuscators(self, count: int, rng: Random | None = None) -> list[int]:
        """``count`` fresh obfuscation factors ``h**s``, ``s`` uniform in
        ``[1, N)``: this key's one obfuscator source.

        Both :meth:`encrypt_batch` (for what a pool does not cover) and a
        :class:`~repro.crypto.precompute.PrecomputeEngine` refill call it,
        so a pooled factor costs what an inline one does.
        """
        if count <= 0:
            return []
        power = self._windowed_obfuscators(rng).pow
        return [power(nt.random_below(self.n - 1, rng) + 1)
                for _ in range(count)]

    def _encrypt_encoded(self, encoded: Sequence[int],
                         factors: Sequence[int]) -> list["Ciphertext"]:
        """``(1 + m*N) * factor mod N**2`` per element; counts encryptions."""
        n = self.n
        nsquare = self.nsquare
        mulmod = get_backend().mulmod
        self.counter.add("encryptions", len(encoded))
        return [
            Ciphertext(self, mulmod((1 + m * n) % nsquare, factor, nsquare))
            for m, factor in zip(encoded, factors)
        ]

    def encrypt_batch(self, values: Sequence[int], rng: Random | None = None,
                      r_values: Sequence[int] | None = None,
                      pool: "PrecomputeEngine | None" = None
                      ) -> list["Ciphertext"]:
        """Encrypt a vector of signed integers in one vectorized kernel call.

        Element-wise equivalent to ``[self.encrypt(v) for v in values]`` (and
        bit-identical to it when explicit ``r_values`` are supplied), while
        amortizing counter bookkeeping and attribute dispatch over the whole
        vector.

        Obfuscator precedence: explicit ``r_values`` (textbook ``r**N``) >
        the precomputed ``pool``'s factors > :meth:`obfuscators`.  A pool
        covers as many elements as it has factors available; the remainder
        is drawn fresh, so a dry pool never stalls a batch.

        Args:
            values: signed plaintexts (each ``|v| < N/2``).
            rng: optional deterministic randomness source.
            r_values: optional explicit nonces, one per value, so ciphertexts
                match the scalar API exactly (tests and worked examples).
            pool: optional :class:`~repro.crypto.precompute.PrecomputeEngine`
                of precomputed factors.

        Returns:
            One :class:`Ciphertext` per value, in order.
        """
        encoded = [self.encode_signed(v) for v in values]
        if r_values is None:
            return self._encrypt_encoded(
                encoded, _pooled_obfuscators(self, len(encoded), rng, pool))
        if len(r_values) != len(encoded):
            raise EncryptionError(
                "encrypt_batch needs exactly one nonce per value")
        powmod = get_backend().powmod
        return self._encrypt_encoded(
            encoded, [powmod(r, self.n, self.nsquare) for r in r_values])

    def scalar_mul_batch(self, ciphertexts: Sequence["Ciphertext"],
                         scalars: Sequence[int] | int) -> list["Ciphertext"]:
        """Homomorphic scalar multiplication over whole vectors.

        Element-wise (and raw) identical to ``[c * s for c, s in zip(...)]``.
        The scalars congruent to ``-1`` — every ``neg_batch`` of the
        protocols — are inverted together: one modular inversion per call,
        not per negation (``BigintBackend.invert_batch``), and a non-unit
        among them still raises :class:`CryptoError` naming it.  Counters
        advance by one exponentiation per element, exactly like the scalar
        path.

        Args:
            ciphertexts: the operand vector.
            scalars: one scalar per ciphertext, or a single shared scalar.
        """
        if isinstance(scalars, int):
            scalars = [scalars] * len(ciphertexts)
        elif len(scalars) != len(ciphertexts):
            raise EncryptionError(
                "scalar_mul_batch needs exactly one scalar per ciphertext")
        self._check_batch_key(ciphertexts)
        n = self.n
        raw_power = self._raw_power
        exponents = [scalar % n for scalar in scalars]
        inverses = iter(get_backend().invert_batch(
            [ciphertext.value
             for ciphertext, exponent in zip(ciphertexts, exponents)
             if exponent == n - 1], self.nsquare))
        out = [Ciphertext(self, next(inverses) if exponent == n - 1
                          else raw_power(ciphertext.value, exponent))
               for ciphertext, exponent in zip(ciphertexts, exponents)]
        self.counter.add("exponentiations", len(out))
        return out

    def add_batch(self, left: Sequence["Ciphertext"],
                  right: Sequence["Ciphertext"]) -> list["Ciphertext"]:
        """Pairwise homomorphic addition of two equal-length vectors."""
        if len(left) != len(right):
            raise EncryptionError("add_batch needs equal-length vectors")
        self._check_batch_key(left)
        self._check_batch_key(right)
        nsquare = self.nsquare
        mulmod = get_backend().mulmod
        out = [Ciphertext(self, mulmod(a.value, b.value, nsquare))
               for a, b in zip(left, right)]
        self.counter.add("homomorphic_additions", len(out))
        return out

    def weighted_sum_batch(self, rows: Sequence[Sequence["Ciphertext"]],
                           scalar_rows: Sequence[Sequence[int]]
                           ) -> list["Ciphertext"]:
        """``E(sum_j s_ij * a_ij)`` for every row, one multi-exponentiation each.

        ``prod_j c_ij ** (s_ij mod N) mod N**2``: what ``scalar_mul_batch`` on
        the flattened terms followed by a row-wise ``add_batch`` reduction
        returns, computed through the backend's ``multi_powmod`` so the
        squarings of a row are shared.  Counters advance as for that
        reduction — one exponentiation per term and ``terms - rows``
        homomorphic additions — so operation counts do not depend on how the
        product was evaluated.  Scalars congruent to ``-1 mod N`` are plain
        exponents here (for them alone the raw value differs from
        ``scalar_mul_batch``'s): the inverse belongs to negation, not to
        a strip step, whose scalars are masks — short ones
        (:data:`~repro.protocols.base.MASK_SHORT`) reduce to short
        exponents here.

        Args:
            rows: non-empty rows of ciphertexts (rows may differ in length).
            scalar_rows: one scalar per ciphertext, row for row.
        """
        if len(rows) != len(scalar_rows):
            raise EncryptionError(
                "weighted_sum_batch needs exactly one scalar row per row")
        n = self.n
        nsquare = self.nsquare
        multi_powmod = get_backend().multi_powmod
        out = []
        terms = 0
        for row, scalars in zip(rows, scalar_rows):
            if not row or len(row) != len(scalars):
                raise EncryptionError(
                    "weighted_sum_batch needs non-empty rows with exactly "
                    "one scalar per ciphertext")
            self._check_batch_key(row)
            out.append(Ciphertext(self, multi_powmod(
                [ciphertext.value for ciphertext in row],
                [scalar % n for scalar in scalars], nsquare)))
            terms += len(row)
        self.counter.add("exponentiations", terms)
        self.counter.add("homomorphic_additions", terms - len(out))
        return out

    # -- packed plaintexts ----------------------------------------------------
    def pack(self, ciphertexts: Sequence["Ciphertext"],
             width: int) -> list["Ciphertext"]:
        """Fold ``slots(K, width)`` ciphertexts at a time into one.

        ``E(v_0 + v_1 * 2**w + v_2 * 2**(2w) + ...)`` by Horner's rule, the
        first ciphertext in the lowest slot [Bianchi, Piva & Barni, IEEE
        TIFS 2010]: each step is one ``E**(2**w)`` power mod ``N**2``,
        counted as an exponentiation, and one homomorphic addition.  The
        slots do not carry into one another as long as every ``v_i`` is in
        ``[0, 2**w)`` — the caller's side of the bargain; the plaintext is
        then below ``2**(K-1) <= N``.  Returns ``ceil(len / slots)`` packs
        in order, the last one possibly partial.
        """
        per_pack = slots(self.key_size, width)
        if per_pack < 1:
            raise EncryptionError(
                f"{width}-bit slots do not fit a {self.key_size}-bit key")
        self._check_batch_key(ciphertexts)
        nsquare = self.nsquare
        backend = get_backend()
        shift = 1 << width
        out = []
        for start in range(0, len(ciphertexts), per_pack):
            chunk = ciphertexts[start:start + per_pack]
            raw = chunk[-1].value
            for ciphertext in reversed(chunk[:-1]):
                raw = backend.mulmod(backend.powmod(raw, shift, nsquare),
                                     ciphertext.value, nsquare)
            out.append(Ciphertext(self, raw))
        shifts = len(ciphertexts) - len(out)
        self.counter.add("exponentiations", shifts)
        self.counter.add("homomorphic_additions", shifts)
        return out

    def unpack(self, residues: Sequence[int], width: int,
               count: int) -> list[int]:
        """The ``count`` slot values of decrypted :meth:`pack` residues.

        Inverse of :meth:`pack` for in-range slots; a pack's top slot is
        what is left above the others, so a one-slot pack is its whole
        residue.
        """
        per_pack = slots(self.key_size, width)
        if per_pack < 1:
            raise EncryptionError(
                f"{width}-bit slots do not fit a {self.key_size}-bit key")
        if len(residues) != -(-count // per_pack):
            raise DecryptionError(
                f"{len(residues)} packs cannot hold {count} values")
        mask = (1 << width) - 1
        values = []
        for residue in residues:
            take = min(per_pack, count - len(values))
            for _ in range(take - 1):
                values.append(residue & mask)
                residue >>= width
            values.append(residue)
        return values


def slots(key_size: int, width: int) -> int:
    """``(K - 1) // w``: how many ``w``-bit values a ``K``-bit key's
    plaintext packs without reaching ``N`` (``N >= 2**(K-1)``); 0 when not
    even one does."""
    return (key_size - 1) // width if width >= 1 else 0


class PaillierPrivateKey:
    """Paillier private key holding the factorization ``N = p * q``.

    Decryption uses ``lambda = lcm(p-1, q-1)`` and ``mu = lambda^{-1} mod N``
    (valid because ``g = N + 1``).  A CRT-accelerated path over ``p^2`` and
    ``q^2`` is used by default.
    """

    def __init__(self, public_key: PaillierPublicKey, p: int, q: int) -> None:
        if p * q != public_key.n:
            raise KeyGenerationError("given p and q do not match the public key")
        if p == q:
            raise KeyGenerationError("p and q must be distinct primes")
        self.public_key = public_key
        self.p = p
        self.q = q
        self.lam = nt.lcm(p - 1, q - 1)
        self.mu = nt.modinv(self.lam, public_key.n)
        # CRT precomputation
        self.psquare = p * p
        self.qsquare = q * q
        self.p_inverse_mod_q = nt.modinv(p, q)
        self.hp = self._h_function(p, self.psquare)
        self.hq = self._h_function(q, self.qsquare)
        self.counter = OperationCounter()
        # CRT form of the obfuscator power, made lazily by obfuscators()
        self._crt_obfuscators = None
        self._crt_obfuscators_lock = threading.Lock()
        # SMIN's DGK key, derived lazily by dgk()
        self._dgk = None
        self._dgk_lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PaillierPrivateKey(bits={self.public_key.key_size})"

    def dgk(self) -> "DGKPrivateKey":
        """SMIN's DGK key pair, derived from ``p`` and ``q``
        (:func:`repro.crypto.dgk.derive_key`) once per key object, on first
        use and thread-safely: deployments that never compare never pay."""
        if self._dgk is None:
            with self._dgk_lock:
                if self._dgk is None:
                    # dgk.py builds on this module
                    from repro.crypto.dgk import derive_key
                    self._dgk = derive_key(self)
        return self._dgk

    def dgk_public_key(self) -> "DGKPublicKey":
        """The public half of :meth:`dgk`: what the key holder hands C1."""
        return self.dgk().public_key

    # -- encryption -----------------------------------------------------------
    def crt_obfuscators(self, rng: Random | None = None
                        ) -> "_CrtObfuscatorPower":
        """The key holder's exponentiator of the public obfuscator base.

        Same ``h``, same ``pow(s)`` integer as the public key's
        ``_windowed_obfuscators`` — from two half-size powers (see
        :class:`_CrtObfuscatorPower`).  Built once per key, lazily and
        thread-safely; ``rng`` draws ``h`` if nothing has yet.
        """
        if self._crt_obfuscators is None:
            h = self.public_key.obfuscator_base(rng)
            with self._crt_obfuscators_lock:
                if self._crt_obfuscators is None:
                    self._crt_obfuscators = _CrtObfuscatorPower(self, h)
        return self._crt_obfuscators

    def obfuscators(self, count: int, rng: Random | None = None) -> list[int]:
        """:meth:`PaillierPublicKey.obfuscators` by CRT: the same ``h**s``
        for the same ``rng``, from two half-size powers each — the key
        holder's one obfuscator source."""
        if count <= 0:
            return []
        power = self.crt_obfuscators(rng).pow
        n = self.public_key.n
        return [power(nt.random_below(n - 1, rng) + 1) for _ in range(count)]

    def encrypt_batch(self, values: Sequence[int], rng: Random | None = None,
                      pool: "PrecomputeEngine | None" = None
                      ) -> list["Ciphertext"]:
        """The key holder's batched encryption under its own public key.

        :meth:`PaillierPublicKey.encrypt_batch` with the obfuscators the
        pool does not cover taken from :meth:`obfuscators`: the same
        ciphertexts for the same ``rng`` and pool, the same count, about
        2.5-3x cheaper per fresh obfuscator.
        """
        public = self.public_key
        encoded = [public.encode_signed(v) for v in values]
        return public._encrypt_encoded(
            encoded, _pooled_obfuscators(self, len(encoded), rng, pool))

    # -- decryption ---------------------------------------------------------
    def _h_function(self, x: int, xsquare: int) -> int:
        """CRT helper ``h = L_x(g^{x-1} mod x^2)^{-1} mod x``."""
        g = self.public_key.g
        lx = self._l_function(
            get_backend().powmod(g, x - 1, xsquare), x)
        return nt.modinv(lx, x)

    @staticmethod
    def _l_function(u: int, n: int) -> int:
        """Paillier's ``L(u) = (u - 1) / n`` function."""
        return (u - 1) // n

    def raw_decrypt(self, ciphertext: int, use_crt: bool = True) -> int:
        """Decrypt a raw ciphertext to its plaintext residue in ``[0, N)``.

        Args:
            ciphertext: element of ``Z_{N^2}``.
            use_crt: when ``True`` (default) use the CRT-accelerated path;
                the naive path is kept for the ablation benchmark.
        """
        if not 0 < ciphertext < self.public_key.nsquare:
            raise DecryptionError("ciphertext out of range for this key")
        backend = get_backend()
        self.counter.add("decryptions", 1)
        if use_crt:
            mp = (
                (backend.powmod(ciphertext, self.p - 1, self.psquare) - 1)
                // self.p * self.hp % self.p
            )
            mq = (
                (backend.powmod(ciphertext, self.q - 1, self.qsquare) - 1)
                // self.q * self.hq % self.q
            )
            u = (mq - mp) * self.p_inverse_mod_q % self.q
            return (mp + u * self.p) % self.public_key.n
        u = backend.powmod(ciphertext, self.lam, self.public_key.nsquare)
        return (self._l_function(u, self.public_key.n) * self.mu) % self.public_key.n

    def decrypt(self, ciphertext: "Ciphertext", use_crt: bool = True) -> int:
        """Decrypt a :class:`Ciphertext` and decode the signed representation."""
        if ciphertext.public_key != self.public_key:
            raise KeyMismatchError("ciphertext was produced under a different key")
        raw = self.raw_decrypt(ciphertext.value, use_crt=use_crt)
        return self.public_key.decode_signed(raw)

    def decrypt_raw_residue(self, ciphertext: "Ciphertext") -> int:
        """Decrypt without signed decoding (returns the residue in ``[0, N)``).

        Several protocol steps (e.g. SM's ``h = (a+r_a)(b+r_b) mod N``) operate
        on the raw residue, where interpreting large values as negative would
        be incorrect.
        """
        if ciphertext.public_key != self.public_key:
            raise KeyMismatchError("ciphertext was produced under a different key")
        return self.raw_decrypt(ciphertext.value)

    # -- batched kernel ------------------------------------------------------
    def _raw_decrypt_batch(self, raw_values: Sequence[int]) -> list[int]:
        """CRT decryption of raw ciphertexts with hoisted per-key constants.

        Element-wise identical to :meth:`raw_decrypt`; the per-element Python
        overhead (attribute dispatch, bounds bookkeeping) is paid once for the
        whole vector.  Counters advance by one decryption per element.
        """
        nsquare = self.public_key.nsquare
        n = self.public_key.n
        powmod = get_backend().powmod
        p, q = self.p, self.q
        psquare, qsquare = self.psquare, self.qsquare
        hp, hq = self.hp, self.hq
        p_inv_q = self.p_inverse_mod_q
        pm1, qm1 = p - 1, q - 1
        out = []
        for raw in raw_values:
            if not 0 < raw < nsquare:
                raise DecryptionError("ciphertext out of range for this key")
            mp = (powmod(raw, pm1, psquare) - 1) // p * hp % p
            mq = (powmod(raw, qm1, qsquare) - 1) // q * hq % q
            u = (mq - mp) * p_inv_q % q
            out.append((mp + u * p) % n)
        self.counter.add("decryptions", len(out))
        return out

    def _check_batch_keys(self, ciphertexts: Sequence["Ciphertext"]) -> None:
        for ciphertext in ciphertexts:
            if ciphertext.public_key != self.public_key:
                raise KeyMismatchError(
                    "ciphertext was produced under a different key")

    def decrypt_batch(self, ciphertexts: Sequence["Ciphertext"]) -> list[int]:
        """Vectorized decryption with signed decoding.

        Element-wise identical to ``[self.decrypt(c) for c in ciphertexts]``
        (same CRT path, same counter totals), with per-key constants hoisted
        out of the loop.
        """
        self._check_batch_keys(ciphertexts)
        residues = self._raw_decrypt_batch([c.value for c in ciphertexts])
        decode = self.public_key.decode_signed
        return [decode(residue) for residue in residues]

    def decrypt_residue_batch(
            self, ciphertexts: Sequence["Ciphertext"]) -> list[int]:
        """Vectorized decryption to raw residues in ``[0, N)`` (no decoding)."""
        self._check_batch_keys(ciphertexts)
        return self._raw_decrypt_batch([c.value for c in ciphertexts])


class _CrtObfuscatorPower:
    """``h ** s mod N**2`` with the factorization: two half-size powers.

    ``h = y**N`` is an N-th residue, so its order modulo ``p**2`` divides
    ``p - 1`` (``h**(p-1) = y**(q * p(p-1)) = 1``) and likewise for ``q``:
    ``h**s mod N**2`` is the CRT of ``h**(s mod p-1) mod p**2`` and
    ``h**(s mod q-1) mod q**2`` [Paillier, EUROCRYPT'99, section 7] — half
    the exponent on half the modulus, twice: 67 against 168 us at K=512 and
    361 against 1,103 us at K=1024 on the native backend, two quarter-size
    comb tables instead of the full-size one on the python backend.  Like
    CRT decryption it exists only where ``p`` and ``q`` do, and is no more
    constant-time.  ``pow`` and ``base`` as on the backend's fixed-base
    exponentiators.
    """

    def __init__(self, private_key: PaillierPrivateKey, h: int) -> None:
        backend = get_backend()
        p, q = private_key.p, private_key.q
        self.base = h
        self._orders = (p - 1, q - 1)
        self._psquare = private_key.psquare
        self._qsquare = private_key.qsquare
        self._psquare_inverse = nt.modinv(self._psquare, self._qsquare)
        self._power_p = backend.fixed_base(h, self._psquare,
                                           (p - 1).bit_length())
        self._power_q = backend.fixed_base(h, self._qsquare,
                                           (q - 1).bit_length())

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod N**2`` (exponent >= 0)."""
        order_p, order_q = self._orders
        residue_p = self._power_p.pow(exponent % order_p)
        residue_q = self._power_q.pow(exponent % order_q)
        return residue_p + self._psquare * (
            (residue_q - residue_p) * self._psquare_inverse % self._qsquare)


def _pooled_obfuscators(key: "PaillierPublicKey | PaillierPrivateKey",
                        count: int, rng: Random | None,
                        pool: "PrecomputeEngine | None") -> list[int]:
    """``count`` factors: the pool's while it has them, then ``key``'s own."""
    factors = pool.take_available(count) if pool is not None and count else []
    factors.extend(key.obfuscators(count - len(factors), rng))
    return factors


@dataclass(frozen=True)
class PaillierKeyPair:
    """A matching Paillier public/private key pair."""

    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey

    @property
    def key_size(self) -> int:
        """Modulus size in bits."""
        return self.public_key.key_size


class Ciphertext:
    """A Paillier ciphertext with operator sugar for the homomorphic ops.

    The class is intentionally small: it pairs the raw integer with the public
    key it belongs to so that mixing ciphertexts from different key pairs is
    detected immediately, and it exposes the two homomorphic operations the
    paper uses:

    * ``c1 + c2``  — encryption of the sum (ciphertext * ciphertext mod N^2);
    * ``c1 + int`` — encryption of sum with a plaintext constant;
    * ``c1 * int`` — encryption of the product with a plaintext constant
      (ciphertext exponentiation);
    * ``-c1`` and ``c1 - c2`` — negation/subtraction via the ``N - x`` trick.
    """

    __slots__ = ("public_key", "value")

    def __init__(self, public_key: PaillierPublicKey, value: int) -> None:
        self.public_key = public_key
        self.value = value % public_key.nsquare

    # -- helpers ------------------------------------------------------------
    def _check_same_key(self, other: "Ciphertext") -> None:
        if self.public_key != other.public_key:
            raise KeyMismatchError("cannot combine ciphertexts under different keys")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Ciphertext(0x{self.value:x})"

    def __eq__(self, other: object) -> bool:
        """Ciphertext equality (same key and same raw value).

        Note that two encryptions of the same plaintext are *not* equal unless
        they used the same nonce — that is exactly the semantic-security
        property the protocols rely on.
        """
        return (
            isinstance(other, Ciphertext)
            and other.public_key == self.public_key
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.public_key.n, self.value))

    # -- homomorphic operations ----------------------------------------------
    def __add__(self, other: "Ciphertext | int") -> "Ciphertext":
        if isinstance(other, Ciphertext):
            self._check_same_key(other)
            return Ciphertext(
                self.public_key, self.public_key.raw_add(self.value, other.value)
            )
        if isinstance(other, int):
            encoded = self.public_key.encode_signed(other)
            # Adding a known constant does not need a fresh encryption: we use
            # the deterministic (1 + c*N) ciphertext of the constant.
            constant = (1 + encoded * self.public_key.n) % self.public_key.nsquare
            return Ciphertext(
                self.public_key, self.public_key.raw_add(self.value, constant)
            )
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Ciphertext":
        return self * -1

    def __sub__(self, other: "Ciphertext | int") -> "Ciphertext":
        if isinstance(other, Ciphertext):
            return self + (-other)
        if isinstance(other, int):
            return self + (-other)
        return NotImplemented

    def __mul__(self, scalar: int) -> "Ciphertext":
        if not isinstance(scalar, int):
            return NotImplemented
        encoded = scalar % self.public_key.n
        return Ciphertext(
            self.public_key, self.public_key.raw_scalar_mul(self.value, encoded)
        )

    __rmul__ = __mul__


def generate_keypair(key_size: int = DEFAULT_KEY_SIZE,
                     rng: Random | None = None) -> PaillierKeyPair:
    """Generate a fresh Paillier key pair.

    Args:
        key_size: modulus size in bits (the paper's ``K``; 512 or 1024 in the
            evaluation, smaller values are accepted for fast tests).
        rng: optional deterministic randomness source (tests only — do not use
            a seeded generator for real deployments).

    Returns:
        A :class:`PaillierKeyPair`.
    """
    if key_size < 16:
        raise KeyGenerationError(f"key size too small: {key_size}")
    p, q = nt.generate_prime_pair(key_size, rng)
    public = PaillierPublicKey(p * q)
    private = PaillierPrivateKey(public, p, q)
    return PaillierKeyPair(public, private)
