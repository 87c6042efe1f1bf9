"""Secure two-party sub-protocols from Section 3 of the paper.

All protocols run between the evaluator P1 (cloud C1, knows only the public
key) and the decryptor P2 (cloud C2, holds the Paillier secret key):

* :class:`SecureMultiplication` (SM) — ``Epk(a), Epk(b) -> Epk(a*b)``
* :class:`SecureSquaredEuclideanDistance` (SSED) — ``Epk(X), Epk(Y) -> Epk(|X-Y|^2)``
* :class:`SecureBitDecomposition` (SBD) — ``Epk(z) -> [z]``
* :class:`SecureMinimum` (SMIN) — ``[u], [v] -> [min(u, v)]``
* :class:`SecureMinimumOfN` (SMIN_n) — ``[d_1..d_n] -> [min]``

The paper's Secure Bit-OR (SBOR) has no class: SkNN_m eliminates the
selected record with a flag bit instead (see :mod:`repro.core.sknn_secure`).
"""

from repro.protocols.base import TwoPartyProtocol
from repro.protocols.encoding import (
    bits_to_int,
    decrypt_bits,
    encrypt_bits,
    int_to_bits,
    recompose_from_encrypted_bits,
)
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.sm import SecureMultiplication
from repro.protocols.smin import SecureMinimum
from repro.protocols.sminn import SecureMinimumOfN
from repro.protocols.ssed import SecureSquaredEuclideanDistance

__all__ = [
    "TwoPartyProtocol",
    "SecureMultiplication",
    "SecureSquaredEuclideanDistance",
    "SecureBitDecomposition",
    "SecureMinimum",
    "SecureMinimumOfN",
    "int_to_bits",
    "bits_to_int",
    "encrypt_bits",
    "decrypt_bits",
    "recompose_from_encrypted_bits",
]
