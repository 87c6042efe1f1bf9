"""Number-theoretic primitives used by the Paillier cryptosystem.

The paper's protocols rely on a semantically secure additively homomorphic
cryptosystem (Paillier).  Because this reproduction must run offline without
``phe`` or a bigint extension module, the required number theory is
implemented here from scratch on top of Python's arbitrary-precision integers
(modular powers and inverses go through the active bigint backend of
:mod:`repro.crypto.backend`):

* probabilistic primality testing (Miller--Rabin with deterministic witness
  sets for small inputs),
* random prime generation,
* modular inverse via the extended Euclidean algorithm,
* least common multiple, and
* cryptographically secure random sampling from ``Z_N^*``.

All functions operate on plain ``int`` values and are deterministic given an
explicitly supplied random generator, which keeps the higher-level protocol
tests reproducible.
"""

from __future__ import annotations

import math
import secrets
from random import Random

from repro.crypto.backend import get_backend
from repro.exceptions import CryptoError

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "generate_prime_pair",
    "egcd",
    "modinv",
    "lcm",
    "random_below",
    "random_in_zn_star",
]

# Deterministic Miller-Rabin witness set: testing against these bases is
# sufficient for all integers below 3.3 * 10**24, which covers every small
# factor check we perform; larger candidates additionally get random bases.
_SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
)

_DETERMINISTIC_WITNESSES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
)


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """Return ``True`` if ``n`` passes one Miller--Rabin round with base ``a``."""
    x = get_backend().powmod(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rounds: int = 40, rng: Random | None = None) -> bool:
    """Decide whether ``n`` is prime with negligible error probability.

    Uses trial division by a table of small primes followed by Miller--Rabin.
    For candidates below 3.3e24 the deterministic witness set makes the answer
    exact; above that the error probability is at most ``4**-rounds``.

    Args:
        n: candidate integer (any size).
        rounds: number of random Miller--Rabin rounds for large candidates.
        rng: optional deterministic source for the random witnesses.  When
            omitted, :mod:`secrets` is used.

    Returns:
        ``True`` if ``n`` is (probably) prime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    # Write n - 1 = d * 2**r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    for a in _DETERMINISTIC_WITNESSES:
        if a >= n:
            continue
        if not _miller_rabin_round(n, a, d, r):
            return False
    if n < 3_317_044_064_679_887_385_961_981:
        return True

    for _ in range(rounds):
        if rng is None:
            a = secrets.randbelow(n - 3) + 2
        else:
            a = rng.randrange(2, n - 1)
        if not _miller_rabin_round(n, a, d, r):
            return False
    return True


def random_below(bound: int, rng: Random | None = None) -> int:
    """Return a uniform random integer in ``[0, bound)``.

    Args:
        bound: exclusive upper bound, must be positive.
        rng: optional deterministic :class:`random.Random`; when omitted a
            cryptographically secure source is used.
    """
    if bound <= 0:
        raise CryptoError(f"random_below requires a positive bound, got {bound}")
    if rng is None:
        return secrets.randbelow(bound)
    return rng.randrange(bound)


def generate_prime(bits: int, rng: Random | None = None, max_attempts: int = 100_000) -> int:
    """Generate a random prime with exactly ``bits`` bits.

    The candidate always has its top bit and lowest bit set, so the product of
    two ``bits``-bit primes has either ``2*bits`` or ``2*bits - 1`` bits.

    Args:
        bits: bit length of the prime (>= 8).
        rng: optional deterministic randomness source (used by tests).
        max_attempts: safety bound on the number of candidates examined.

    Raises:
        CryptoError: if no prime is found within ``max_attempts`` candidates.
    """
    if bits < 8:
        raise CryptoError(f"prime bit length must be >= 8, got {bits}")
    for _ in range(max_attempts):
        candidate = random_below(1 << bits, rng)
        candidate |= (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate
    raise CryptoError(f"failed to find a {bits}-bit prime after {max_attempts} attempts")


def generate_prime_pair(
    bits: int, rng: Random | None = None
) -> tuple[int, int]:
    """Generate two distinct primes ``p != q`` each of ``bits // 2`` bits.

    Used by Paillier key generation, where ``N = p * q`` must have exactly
    ``bits`` bits.  The pair is rejected and regenerated when ``p == q``,
    when ``p * q`` has only ``bits - 1`` bits, or when
    ``gcd(p*q, (p-1)*(q-1)) != 1`` (which Paillier requires).

    Args:
        bits: target modulus size in bits (must be even and >= 16).
        rng: optional deterministic randomness source.
    """
    if bits < 16 or bits % 2 != 0:
        raise CryptoError(f"modulus bit length must be an even number >= 16, got {bits}")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() < bits:
            continue
        if egcd(n, (p - 1) * (q - 1))[0] != 1:
            continue
        return p, q


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns:
        A tuple ``(g, x, y)`` such that ``a*x + b*y == g == gcd(a, b)``.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def modinv(a: int, modulus: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo ``modulus``.

    Routed through the active bigint backend (CPython's C-level
    ``pow(a, -1, m)`` under every backend) — the extended-Euclid
    implementation above remains as the reference algorithm and for the
    Bezout coefficients.

    Raises:
        CryptoError: if ``a`` is not invertible modulo ``modulus``.
    """
    return get_backend().invert(a % modulus, modulus)


def lcm(a: int, b: int) -> int:
    """Least common multiple of two positive integers."""
    if a == 0 or b == 0:
        return 0
    g, _, _ = egcd(a, b)
    return abs(a // g * b)


def random_in_zn_star(n: int, rng: Random | None = None, max_attempts: int = 1000) -> int:
    """Sample a uniform element of ``Z_N^*`` (units modulo ``N``).

    For an RSA-like modulus the rejection probability is negligible, so a
    small bounded number of attempts suffices.  The coprimality test is
    :func:`math.gcd` (C, ~2 us at K=512), not the pure-Python :func:`egcd`
    (~145 us, most of what an ``r^N`` power costs): a pool refill samples
    one unit per factor.
    """
    for _ in range(max_attempts):
        candidate = random_below(n - 1, rng) + 1
        if math.gcd(candidate, n) == 1:
            return candidate
    raise CryptoError(f"could not sample an invertible element modulo {n}")
