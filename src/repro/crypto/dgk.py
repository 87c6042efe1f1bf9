"""The DGK cryptosystem, for SMIN's bitwise comparison.

Damgard, Geisler and Kroigaard ["Efficient and secure comparison for
on-line auctions", ACISP 2007; correction in Int. J. Applied Cryptography
1(4), 2009] built an additively homomorphic scheme whose plaintext space is
a *small* prime ``u``: just large enough for the bitwise comparison's
markers, so a ciphertext is one element of ``Z_n*`` (not ``Z_{N^2}*``), a
scalar is an exponent below ``u`` (not a ``K``-bit one), and the key holder
answers "is this zero?" with one half-size power instead of a decryption.
SMIN (:mod:`repro.protocols.smin`) runs its bits, entries and top bit under
this scheme; everything else stays on Paillier.

Parameters, for a ``K``-bit Paillier key:

* ``n = p * q`` has ``K`` bits, ``p`` and ``q`` of ``K/2`` bits each;
* ``t = min(160, K/4)``: the subgroup primes ``v_p`` and ``v_q`` have
  ``t`` bits, with ``u * v_p | p - 1`` and ``u * v_q | q - 1``;
* ``u`` is the smallest prime above ``3K``, so every SMIN marker (of
  absolute value at most ``3L + 2`` for ``L < K`` compared bits) is a
  non-zero residue unless it is zero;
* ``g`` has order ``u * v_p * v_q`` and ``h`` order ``v_p * v_q``;
* ``E(m) = g^m * h^r mod n`` with ``r`` of ``2.5t`` bits (the
  re-randomizer; ``h^r`` is statistically close to uniform in ``<h>``).

Hardness: DGK's assumption 1 — given ``(n, g, h, u)``, a uniform element of
``<h>`` cannot be told from a uniform element of ``<g>`` — which makes the
scheme semantically secure and implies that ``n`` cannot be factored.  The
weakest link at the repository's key sizes is the modulus itself (a
``K``-bit RSA modulus, as for Paillier); ``t``-bit subgroups put a
discrete logarithm in ``<h>`` at ``2^(t/2)`` group operations.

The key holder tests ``m = 0 mod u`` by ``c^(v_p) mod p = 1``: ``h^(v_p)``
vanishes mod ``p`` and ``g^(v_p)`` has order ``u`` there.  A bit (or any
``m < u``) is read off the same power by table lookup.

Key derivation.  The DGK secret key is *derived* from the Paillier one:
the prime search is seeded with SHA-256 over :data:`DERIVATION_TAG`, ``p``
and ``q`` and reads its candidates and Miller-Rabin witnesses from a
SHA-256 counter stream, with every power on the active backend's
``powmod`` — so the ``python`` and ``openssl`` backends derive the same
key, a restarted key holder re-derives it instead of persisting it, and
whoever holds the Paillier key pair (the data owner) can hand C1 the public
half.  :meth:`~repro.crypto.paillier.PaillierPrivateKey.dgk` derives it
once per key object, on first use.

Operations are counted in the columns Paillier's are (an encryption, a
zero test or bit decryption as a decryption, a scalar power as an
exponentiation) on a counter of the DGK key's own whose increments also
land on its Paillier key's counter and, once, in the thread's counting
scope (:meth:`~repro.crypto.paillier.OperationCounter.add`).
"""

from __future__ import annotations

import hashlib
import threading
from random import Random
from typing import TYPE_CHECKING, Sequence

from repro.crypto import numtheory as nt
from repro.crypto.backend import get_backend
from repro.crypto.paillier import OperationCounter, _pooled_obfuscators
from repro.exceptions import DecryptionError, KeyGenerationError

if TYPE_CHECKING:  # pragma: no cover - import used for annotations only
    from repro.crypto.paillier import PaillierPrivateKey
    from repro.crypto.precompute import PrecomputeEngine

__all__ = ["DGKPublicKey", "DGKPrivateKey", "derive_key", "parameters",
           "DERIVATION_TAG"]

#: Domain tag of the derivation seed: SHA-256(tag || p || q).
DERIVATION_TAG = b"repro.dgk.v1"

#: Smallest Paillier key a DGK key is derived for: below it the ``K/2``-bit
#: primes leave no room for ``2 * u * v`` and a cofactor.
MIN_KEY_SIZE = 64


def parameters(key_size: int) -> tuple[int, int, int]:
    """``(t, u, randomizer_bits)`` for a ``K``-bit key: ``t = min(160,
    K/4)``, ``u`` the smallest prime above ``3K``, re-randomizer exponents
    of ``2.5t`` bits."""
    t = min(160, key_size // 4)
    u = 3 * key_size + 1
    while not nt.is_probable_prime(u):
        u += 1
    return t, u, 5 * t // 2


class _DerivationStream(Random):
    """A deterministic, secret stream: SHA-256 of a seed and a counter.

    ``Random``'s ``randrange`` and friends draw through :meth:`getrandbits`
    and :meth:`random`, both overridden, so the library's prime search reads
    its candidates and witnesses from here.
    """

    def __init__(self, seed: bytes) -> None:
        self._seed = seed
        self._block = 0
        super().__init__(0)

    def seed(self, *args, **kwargs) -> None:  # Random.__init__ calls it
        pass

    def getrandbits(self, bits: int) -> int:
        if bits <= 0:
            return 0
        chunks = bytearray()
        while len(chunks) * 8 < bits:
            chunks += hashlib.sha256(
                self._seed + self._block.to_bytes(8, "big")).digest()
            self._block += 1
        return int.from_bytes(chunks, "big") >> (len(chunks) * 8 - bits)

    def random(self) -> float:
        return self.getrandbits(53) / (1 << 53)


class DGKPublicKey:
    """``(n, g, h, u, t)``: encryption and the homomorphic operations.

    Ciphertexts are plain ints in ``(0, n)``; every method takes and returns
    raw values.  ``counter``'s increments also land on ``parent`` (the
    Paillier key's counter, when given).
    """

    def __init__(self, n: int, g: int, h: int, u: int, t: int,
                 parent: OperationCounter | None = None) -> None:
        self.n = n
        self.g = g
        self.h = h
        self.u = u
        self.t = t
        self.randomizer_bits = 5 * t // 2
        self.counter = OperationCounter(parent=parent)
        self._g_powers: dict[int, int] = {0: 1, 1: g % n}
        self._randomizer = None
        self._randomizer_lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DGKPublicKey(bits={self.n.bit_length()}, u={self.u})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DGKPublicKey)
                and (other.n, other.g, other.h, other.u, other.t)
                == (self.n, self.g, self.h, self.u, self.t))

    def __hash__(self) -> int:
        return hash(("DGKPublicKey", self.n, self.g, self.h))

    @property
    def key_size(self) -> int:
        """Modulus size in bits."""
        return self.n.bit_length()

    def valid(self, value: object) -> bool:
        """Whether ``value`` is a ciphertext's shape: an int in ``(0, n)``."""
        return type(value) is int and 0 < value < self.n

    def g_power(self, message: int) -> int:
        """``g ** (message mod u) mod n``: the plaintext part of a ciphertext
        (cached; the protocols use a handful of constants)."""
        message %= self.u
        power = self._g_powers.get(message)
        if power is None:
            power = self._g_powers[message] = pow(self.g, message, self.n)
        return power

    # -- encryption ---------------------------------------------------------
    def obfuscators(self, count: int, rng: Random | None = None) -> list[int]:
        """``count`` fresh re-randomizers ``h ** r``, ``r`` of ``2.5t`` bits:
        the key's one source, for inline draws and engine refills alike."""
        if count <= 0:
            return []
        if self._randomizer is None:
            with self._randomizer_lock:
                if self._randomizer is None:
                    self._randomizer = get_backend().fixed_base(
                        self.h, self.n, self.randomizer_bits)
        power = self._randomizer.pow
        bound = 1 << self.randomizer_bits
        return [power(nt.random_below(bound, rng)) for _ in range(count)]

    def _encrypt(self, values: Sequence[int], factors: Sequence[int],
                 counter: OperationCounter) -> list[int]:
        """``g^m * factor`` per value; ``counter`` counts the encryptions."""
        n = self.n
        counter.add("encryptions", len(factors))
        return [self.g_power(value) * factor % n
                for value, factor in zip(values, factors)]

    def encrypt_batch(self, values: Sequence[int], rng: Random | None = None,
                      pool: "PrecomputeEngine | None" = None) -> list[int]:
        """``E(m) = g^m * h^r`` per value (``m`` taken mod ``u``), the
        re-randomizers from ``pool`` while it has them, then fresh."""
        return self._encrypt(values, _pooled_obfuscators(
            self, len(values), rng, pool), self.counter)

    # -- homomorphic operations -----------------------------------------------
    def add_batch(self, left: Sequence[int], right: Sequence[int]
                  ) -> list[int]:
        """``E(a + b)`` pairwise: one multiplication each."""
        n = self.n
        self.counter.add("homomorphic_additions", len(left))
        return [a * b % n for a, b in zip(left, right, strict=True)]

    def add_plain_batch(self, ciphertexts: Sequence[int],
                        messages: Sequence[int]) -> list[int]:
        """``E(a + m)`` for plain ``m``: times the constant ``g^m``."""
        n = self.n
        self.counter.add("homomorphic_additions", len(ciphertexts))
        return [c * self.g_power(m) % n
                for c, m in zip(ciphertexts, messages, strict=True)]

    def prefix_sums(self, ciphertexts: Sequence[int]) -> list[int]:
        """``E(0), E(a_0), ..., E(a_0 + ... + a_last)``: the sum of every
        prefix, the empty one as the randomness-free ``1``; one addition per
        step past the first."""
        n = self.n
        sums = [1]
        for c in ciphertexts:
            sums.append(sums[-1] * c % n)
        self.counter.add("homomorphic_additions",
                         max(len(ciphertexts) - 1, 0))
        return sums

    def scalar_mul_batch(self, ciphertexts: Sequence[int],
                         scalars: Sequence[int]) -> list[int]:
        """``E(k * a) = c ** (k mod u)``: one exponentiation each, an
        exponent below ``u``; ``k`` of 0 to 3 costs no backend call."""
        n, u = self.n, self.u
        powmod = get_backend().powmod
        out = []
        for c, scalar in zip(ciphertexts, scalars, strict=True):
            exponent = scalar % u
            out.append(pow(c, exponent, n) if exponent <= 3
                       else powmod(c, exponent, n))
        self.counter.add("exponentiations", len(out))
        return out


class DGKPrivateKey:
    """The key holder's half: ``p``, ``q``, ``v_p``, ``v_q``.

    Encrypts with re-randomizers taken by CRT (two ``t``-bit exponents
    modulo ``K/2``-bit primes: ``h`` has order ``v_p`` modulo ``p``), tests
    ciphertexts for zero and decrypts small plaintexts.
    """

    def __init__(self, public_key: DGKPublicKey, p: int, q: int, v_p: int,
                 v_q: int, parent: OperationCounter | None = None) -> None:
        if p * q != public_key.n:
            raise KeyGenerationError("DGK primes do not match the public key")
        self.public_key = public_key
        self.p, self.q, self.v_p, self.v_q = p, q, v_p, v_q
        self.counter = OperationCounter(parent=parent)
        self._p_inverse_mod_q = nt.modinv(p, q)
        self._h_p = public_key.h % p
        self._h_q = public_key.h % q
        # g^(v_p) has order u modulo p: the power m of it names plaintext m
        base = get_backend().powmod(public_key.g, v_p, p)
        self._logs = {}
        power = 1
        for message in range(public_key.u):
            self._logs[power] = message
            power = power * base % p

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DGKPrivateKey(bits={self.public_key.key_size})"

    def obfuscators(self, count: int, rng: Random | None = None) -> list[int]:
        """:meth:`DGKPublicKey.obfuscators` by CRT: the same ``h ** r`` for
        the same ``rng``, from two short powers."""
        if count <= 0:
            return []
        powmod = get_backend().powmod
        p, q = self.p, self.q
        bound = 1 << self.public_key.randomizer_bits
        out = []
        for _ in range(count):
            r = nt.random_below(bound, rng)
            leg_p = powmod(self._h_p, r % self.v_p, p)
            leg_q = powmod(self._h_q, r % self.v_q, q)
            out.append(leg_p + p * ((leg_q - leg_p) * self._p_inverse_mod_q
                                    % q))
        return out

    def encrypt_batch(self, values: Sequence[int], rng: Random | None = None,
                      pool: "PrecomputeEngine | None" = None) -> list[int]:
        """The key holder's encryption: :meth:`DGKPublicKey.encrypt_batch`
        with CRT re-randomizers, counted on this key."""
        return self.public_key._encrypt(values, _pooled_obfuscators(
            self, len(values), rng, pool), self.counter)

    def _reduced(self, ciphertexts: Sequence[int]) -> list[int]:
        """``c ** v_p mod p`` per ciphertext, range-checked first; one
        decryption each."""
        public = self.public_key
        if not all(public.valid(c) for c in ciphertexts):
            raise DecryptionError("DGK ciphertext out of range for this key")
        powmod = get_backend().powmod
        p, v_p = self.p, self.v_p
        out = [powmod(c, v_p, p) for c in ciphertexts]
        self.counter.add("decryptions", len(out))
        return out

    def is_zero_batch(self, ciphertexts: Sequence[int]) -> list[bool]:
        """Per ciphertext, whether its plaintext is ``0 mod u``."""
        return [value == 1 for value in self._reduced(ciphertexts)]

    def decrypt_batch(self, ciphertexts: Sequence[int]) -> list[int]:
        """Each plaintext in ``[0, u)``.

        Raises:
            DecryptionError: for a value out of range or outside ``<g>``.
        """
        logs = self._logs
        out = []
        for value in self._reduced(ciphertexts):
            message = logs.get(value)
            if message is None:
                raise DecryptionError("not a DGK ciphertext under this key")
            out.append(message)
        return out


def _dgk_prime(bits: int, u: int, v: int, stream: Random) -> int | None:
    """A ``bits``-bit prime ``p = 2 u v r + 1`` with its top two bits set,
    or ``None`` when ``64 * bits`` candidates held none (a small key's
    range of ``r`` may hold no prime at all: the caller draws another
    ``v``)."""
    step = 2 * u * v
    low = -(-(3 << (bits - 2)) // step)
    high = ((1 << bits) - 1) // step
    if high < low:
        return None
    for _ in range(64 * bits):
        candidate = step * stream.randrange(low, high + 1) + 1
        if nt.is_probable_prime(candidate, rng=stream):
            return candidate
    return None


def _element_of_order(prime: int, orders: tuple[int, ...],
                      stream: Random) -> int:
    """An element of order ``prod(orders)`` (distinct primes) mod ``prime``."""
    order = 1
    for factor in orders:
        order *= factor
    powmod = get_backend().powmod
    while True:
        element = powmod(stream.randrange(2, prime - 1),
                         (prime - 1) // order, prime)
        if all(powmod(element, order // factor, prime) != 1
               for factor in orders):
            return element


def derive_key(private_key: "PaillierPrivateKey") -> DGKPrivateKey:
    """The DGK key pair derived from a Paillier secret key (see the module
    docstring); the same on every backend for the same ``p`` and ``q``.

    Raises:
        KeyGenerationError: for a Paillier key under :data:`MIN_KEY_SIZE`
            bits.
    """
    public = private_key.public_key
    # K: generate_keypair's moduli have exactly K bits, but a key built
    # from its own p and q may have an odd bit length
    key_size = public.key_size + (public.key_size & 1)
    if key_size < MIN_KEY_SIZE:
        raise KeyGenerationError(
            f"a {key_size}-bit key is too small for a DGK key "
            f"(at least {MIN_KEY_SIZE} bits)")
    width = (key_size + 7) // 8
    stream = _DerivationStream(hashlib.sha256(
        DERIVATION_TAG + private_key.p.to_bytes(width, "big")
        + private_key.q.to_bytes(width, "big")).digest())
    t, u, _ = parameters(key_size)
    half = key_size // 2
    p = q = None
    while p is None:
        v_p = nt.generate_prime(t, stream)
        p = _dgk_prime(half, u, v_p, stream)
    while q is None or q == p:
        v_q = nt.generate_prime(t, stream)
        q = _dgk_prime(half, u, v_q, stream) if v_q != v_p else None
    n = p * q
    inverse = nt.modinv(p, q)

    def crt(at_p: int, at_q: int) -> int:
        return at_p + p * ((at_q - at_p) * inverse % q)

    g = crt(_element_of_order(p, (u, v_p), stream),
            _element_of_order(q, (u, v_q), stream))
    h = crt(_element_of_order(p, (v_p,), stream),
            _element_of_order(q, (v_q,), stream))
    dgk_public = DGKPublicKey(n, g, h, u, t, parent=public.counter)
    return DGKPrivateKey(dgk_public, p, q, v_p, v_q,
                         parent=private_key.counter)
