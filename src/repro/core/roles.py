"""The human-facing roles of the SkNN setting: Alice (data owner) and Bob (user).

The paper's trust model has four principals:

* **Alice**, the data owner — generates the Paillier key pair, encrypts her
  database attribute-wise, outsources the ciphertexts to cloud C1 and the
  secret key to cloud C2, and then goes offline (she takes part in no further
  computation).
* **Bob**, an authorized query user — encrypts his query record, submits it to
  C1, and at the end combines the two result shares he receives (random masks
  from C1, masked plaintexts from C2) into the k nearest records.
* **C1 / C2**, the two non-colluding clouds — modeled in
  :mod:`repro.core.cloud`.

Keeping Alice and Bob as explicit objects (instead of folding their steps into
the protocol driver) preserves the paper's claim that is easiest to get wrong
in a re-implementation: after outsourcing, *neither* Alice nor Bob touches the
data again until Bob receives his shares, and Bob's entire computational load
is one attribute-wise encryption plus ``k * m`` modular subtractions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import used for annotations only
    from repro.crypto.precompute import PrecomputeEngine

from repro.crypto.paillier import (
    Ciphertext,
    PaillierKeyPair,
    PaillierPublicKey,
    generate_keypair,
)
from repro.db.encrypted_table import EncryptedTable
from repro.db.table import Table
from repro.exceptions import ConfigurationError, QueryError

__all__ = ["DataOwner", "QueryClient", "ResultShares", "ClientCostReport"]


@dataclass
class ResultShares:
    """The two shares from which Bob reconstructs the k nearest records.

    Attributes:
        masks_from_c1: the random values ``r_{j,h}`` C1 sends to Bob,
            one row per neighbor (``k`` rows of ``m`` values).
        masked_values_from_c2: the decrypted masked attributes
            ``gamma'_{j,h} = t'_{j,h} + r_{j,h} mod N`` C2 sends to Bob.
            ``None`` while C2's half has not crossed C1's process (the
            distributed C1 daemon returns such half-open shares; Bob's
            client fetches the other half from the C2 daemon by
            ``delivery_id`` and assembles the complete shares).
        modulus: the Paillier modulus ``N`` needed for the final subtraction.
        delivery_id: the id under which C2 filed (or holds) its half.
    """

    masks_from_c1: list[list[int]]
    masked_values_from_c2: list[list[int]] | None
    modulus: int
    delivery_id: int | None = None

    def __post_init__(self) -> None:
        if self.masked_values_from_c2 is None:
            return
        if len(self.masks_from_c1) != len(self.masked_values_from_c2):
            raise QueryError("result shares have mismatching neighbor counts")
        for masks, masked in zip(self.masks_from_c1, self.masked_values_from_c2):
            if len(masks) != len(masked):
                raise QueryError("result shares have mismatching attribute counts")

    @property
    def neighbor_count(self) -> int:
        """Number of neighbors contained in the shares (the query's ``k``)."""
        return len(self.masks_from_c1)


@dataclass
class ClientCostReport:
    """Wall-clock cost of Bob's local work (the paper's end-user overhead).

    Section 5.2 highlights that Bob's cost is essentially the encryption of
    his query (4 ms at K=512, 17 ms at K=1024 for m=6 in the paper's C
    implementation); this report makes the same quantity measurable here.
    """

    encrypt_query_seconds: float = 0.0
    reconstruct_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total client-side time."""
        return self.encrypt_query_seconds + self.reconstruct_seconds


class DataOwner:
    """Alice: owns the plaintext table and the Paillier key pair."""

    def __init__(self, table: Table, key_size: int = 512,
                 rng: Random | None = None,
                 keypair: PaillierKeyPair | None = None) -> None:
        """Create the data owner.

        Args:
            table: the plaintext database ``T``.
            key_size: Paillier modulus size ``K`` in bits (512/1024 in the
                paper; smaller values are accepted for fast tests).
            rng: optional deterministic randomness source (tests only).
            keypair: optionally reuse an existing key pair instead of
                generating a fresh one (benchmarks reuse keys across runs so
                key generation does not pollute the measurement).
        """
        self.table = table
        self.rng = rng
        self.keypair = keypair if keypair is not None else generate_keypair(key_size, rng)

    @property
    def public_key(self) -> PaillierPublicKey:
        """The public key shared with the clouds and with Bob."""
        return self.keypair.public_key

    def encrypt_database(self) -> EncryptedTable:
        """Attribute-wise encryption of the database (the outsourcing payload)."""
        return EncryptedTable.encrypt_table(self.table, self.public_key, rng=self.rng)

    def distance_bit_length(self) -> int:
        """The domain parameter ``l`` derived from the schema ranges."""
        return self.table.schema.distance_bit_length()


class QueryClient:
    """Bob: encrypts queries and reconstructs results from the two shares."""

    def __init__(self, public_key: PaillierPublicKey, dimensions: int,
                 rng: Random | None = None,
                 engine: "PrecomputeEngine | None" = None) -> None:
        """Create a query client.

        Args:
            public_key: Alice's public key (obtained through authorization).
            dimensions: expected number of query attributes ``m``.
            rng: optional deterministic randomness source (tests only).
            engine: optional precomputation engine of Bob's own
                (:class:`~repro.crypto.precompute.PrecomputeEngine`); when
                given, query encryption uses its pooled obfuscation factors,
                turning Bob's hot-path cost into one multiplication per
                attribute.
        """
        if dimensions <= 0:
            raise ConfigurationError("dimensions must be positive")
        if engine is not None and engine.public_key != public_key:
            raise ConfigurationError(
                "precompute engine belongs to a different public key")
        self.public_key = public_key
        self.dimensions = dimensions
        self.rng = rng
        self.engine = engine
        self.last_cost = ClientCostReport()

    def encrypt_query(self, query: Sequence[int]) -> list[Ciphertext]:
        """Encrypt the query record attribute-wise (``Epk(Q)``)."""
        if len(query) != self.dimensions:
            raise QueryError(
                f"query has {len(query)} attributes, expected {self.dimensions}"
            )
        started = time.perf_counter()
        # One vectorized kernel call either way; a session engine supplies
        # precomputed factors (the key's h**s when it runs dry).
        encrypted = self.public_key.encrypt_batch(
            list(query), rng=self.rng, pool=self.engine)
        self.last_cost.encrypt_query_seconds = time.perf_counter() - started
        return encrypted

    def reconstruct(self, shares: ResultShares) -> list[tuple[int, ...]]:
        """Combine the two shares into the plaintext nearest-neighbor records.

        Implements the final step of Algorithms 5 and 6:
        ``t'_{j,h} = gamma'_{j,h} - r_{j,h} mod N``.
        """
        if shares.masked_values_from_c2 is None:
            raise QueryError(
                "shares are missing C2's half — fetch it from the C2 daemon "
                f"(delivery id {shares.delivery_id}) before reconstructing")
        started = time.perf_counter()
        records = []
        for masks, masked in zip(shares.masks_from_c1, shares.masked_values_from_c2):
            values = tuple((gamma - mask) % shares.modulus
                           for gamma, mask in zip(masked, masks))
            records.append(values)
        self.last_cost.reconstruct_seconds = time.perf_counter() - started
        return records
