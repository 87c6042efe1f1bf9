"""Cryptographic substrate: number theory, Paillier, and serialization.

The paper assumes a semantically secure additively homomorphic public-key
cryptosystem; this subpackage provides a self-contained Paillier
implementation (no external crypto dependencies) plus the supporting number
theory and a JSON wire format for keys and ciphertexts.
"""

from repro.crypto.backend import (
    BACKEND_ENV_VAR,
    BigintBackend,
    FixedBaseExp,
    OpenSSLBackend,
    PythonBackend,
    available_backends,
    get_backend,
    resolve_backend,
    set_backend,
)
from repro.crypto.paillier import (
    DEFAULT_KEY_SIZE,
    Ciphertext,
    OperationCounter,
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from repro.crypto.precompute import PrecomputeConfig, PrecomputeEngine

__all__ = [
    "BACKEND_ENV_VAR",
    "BigintBackend",
    "DEFAULT_KEY_SIZE",
    "Ciphertext",
    "FixedBaseExp",
    "OpenSSLBackend",
    "OperationCounter",
    "PaillierKeyPair",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "PrecomputeConfig",
    "PrecomputeEngine",
    "PythonBackend",
    "available_backends",
    "generate_keypair",
    "get_backend",
    "resolve_backend",
    "set_backend",
]
