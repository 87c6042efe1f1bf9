"""Bit-vector encodings used by the SBD / SMIN family of protocols.

The paper writes ``[z]`` for the vector of encryptions of the individual bits
of ``z`` (most significant bit first, Table 3).  This module provides the
plaintext helpers for converting between integers and fixed-width bit lists,
plus convenience functions to encrypt/decrypt whole bit vectors (used by tests
and by the data owner when precomputing inputs).
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from repro.crypto.paillier import Ciphertext, PaillierPrivateKey, PaillierPublicKey
from repro.exceptions import DomainError

__all__ = [
    "int_to_bits",
    "bits_to_int",
    "encrypt_bits",
    "decrypt_bits",
    "recompose_from_encrypted_bits",
]


def int_to_bits(value: int, bit_length: int) -> list[int]:
    """Decompose ``value`` into ``bit_length`` bits, most significant first.

    Args:
        value: non-negative integer with ``0 <= value < 2**bit_length``.
        bit_length: the paper's domain parameter ``l``.

    Raises:
        DomainError: when the value does not fit in ``bit_length`` bits.
    """
    if bit_length <= 0:
        raise DomainError(f"bit length must be positive, got {bit_length}")
    if value < 0 or value >= (1 << bit_length):
        raise DomainError(
            f"value {value} outside [0, 2**{bit_length}) for bit decomposition"
        )
    return [(value >> (bit_length - 1 - i)) & 1 for i in range(bit_length)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Recompose an integer from a most-significant-first bit list."""
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise DomainError(f"bit vector contains a non-bit value: {bit}")
        value = (value << 1) | bit
    return value


def encrypt_bits(public_key: PaillierPublicKey, value: int, bit_length: int,
                 rng: Random | None = None) -> list[Ciphertext]:
    """Encrypt the bit decomposition of ``value`` (the paper's ``[value]``)."""
    return [public_key.encrypt(bit, rng=rng) for bit in int_to_bits(value, bit_length)]


def decrypt_bits(private_key: PaillierPrivateKey,
                 encrypted_bits: Sequence[Ciphertext]) -> int:
    """Decrypt an encrypted bit vector back to the integer it represents.

    Only used by tests and by trusted parties — inside the protocols neither
    cloud ever decrypts a bit vector.
    """
    bits = [private_key.decrypt(c) for c in encrypted_bits]
    return bits_to_int(bits)


def recompose_from_encrypted_bits(
    encrypted_bits: Sequence[Ciphertext],
) -> Ciphertext:
    """Homomorphically recompose ``E(z)`` from ``[z]``.

    Implements the paper's step 3(b) of Algorithm 6:

    ``E(z) = prod_gamma E(z_{gamma+1}) ^ (2 ** (l - gamma - 1))``

    i.e. each encrypted bit is scaled by its positional weight and the scaled
    ciphertexts are summed homomorphically.
    """
    if not encrypted_bits:
        raise DomainError("cannot recompose an empty encrypted bit vector")
    bit_length = len(encrypted_bits)
    total: Ciphertext | None = None
    for index, encrypted_bit in enumerate(encrypted_bits):
        weight = 1 << (bit_length - 1 - index)
        term = encrypted_bit * weight
        total = term if total is None else total + term
    assert total is not None
    return total
