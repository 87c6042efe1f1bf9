"""The two non-colluding cloud servers C1 and C2 (the federated cloud).

* :class:`CloudC1` hosts the encrypted database ``Epk(T)`` and drives the bulk
  of the homomorphic computation.  It knows only the public key.
* :class:`CloudC2` holds the Paillier secret key and assists C1 through the
  two-party sub-protocols; it never stores the database.

Both classes are thin wrappers around the network substrate's party objects:
the extra state they add is exactly what the paper assigns to each cloud (the
encrypted table on C1, the secret key on C2), which keeps the trust boundary
visible in the code.  :class:`FederatedCloud` bundles the pair with their
shared channel and exposes the :class:`~repro.network.party.TwoPartySetting`
that the protocol classes consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import used for annotations only
    from repro.crypto.dgk import DGKPublicKey
    from repro.crypto.precompute import PrecomputeEngine

from repro.crypto.paillier import PaillierKeyPair, PaillierPrivateKey, PaillierPublicKey
from repro.db.encrypted_table import EncryptedTable
from repro.exceptions import ConfigurationError
from repro.network.channel import DuplexChannel
from repro.network.latency import LatencyModel
from repro.network.party import DecryptorParty, EvaluatorParty, TwoPartySetting

__all__ = ["CloudC1", "CloudC2", "FederatedCloud"]


class CloudC1(EvaluatorParty):
    """Cloud server C1: stores ``Epk(T)`` and evaluates over ciphertexts."""

    def __init__(self, public_key: PaillierPublicKey, channel: DuplexChannel,
                 rng: Random | None = None, name: str = "C1",
                 dgk_key: "DGKPublicKey | Callable[[], DGKPublicKey] | None"
                 = None) -> None:
        super().__init__(name, public_key, channel, rng, dgk_key=dgk_key)
        self._encrypted_table: EncryptedTable | None = None

    def host_database(self, encrypted_table: EncryptedTable) -> None:
        """Accept the outsourced encrypted database from the data owner."""
        if encrypted_table.public_key != self.public_key:
            raise ConfigurationError(
                "encrypted table was produced under a different public key"
            )
        self._encrypted_table = encrypted_table

    @property
    def encrypted_table(self) -> EncryptedTable:
        """The hosted encrypted database (raises if none was outsourced yet)."""
        if self._encrypted_table is None:
            raise ConfigurationError("C1 is not hosting an encrypted database yet")
        return self._encrypted_table


class CloudC2(DecryptorParty):
    """Cloud server C2: holds the secret key and assists C1 obliviously."""

    def __init__(self, private_key: PaillierPrivateKey, channel: DuplexChannel,
                 rng: Random | None = None, name: str = "C2") -> None:
        super().__init__(name, private_key, channel, rng)


@dataclass
class FederatedCloud:
    """The C1 + C2 pair together with their communication channel."""

    c1: CloudC1
    c2: CloudC2
    channel: DuplexChannel

    @classmethod
    def deploy(cls, keypair: PaillierKeyPair, rng: Random | None = None,
               latency_model: LatencyModel | None = None) -> "FederatedCloud":
        """Stand up a federated cloud for the given key pair.

        The public key goes to both clouds; the private key goes only to C2
        (mirroring Alice's key distribution in the paper), and C1 gets the
        public half of the DGK key derived from it, on first use.
        """
        channel = DuplexChannel("C1", "C2", latency_model)
        c1_rng = rng
        c2_rng = Random(rng.random()) if rng is not None else None
        c1 = CloudC1(keypair.public_key, channel, c1_rng,
                     dgk_key=keypair.private_key.dgk_public_key)
        c2 = CloudC2(keypair.private_key, channel, c2_rng)
        return cls(c1=c1, c2=c2, channel=channel)

    @property
    def setting(self) -> TwoPartySetting:
        """View of the federated cloud as a two-party protocol setting."""
        return TwoPartySetting(evaluator=self.c1, decryptor=self.c2,
                               channel=self.channel)

    @property
    def engine(self) -> "PrecomputeEngine | None":
        """C1's precomputation engine (or ``None``)."""
        return self.c1.engine

    def attach_engine(self, engine: "PrecomputeEngine | None",
                      decryptor_engine: "PrecomputeEngine | None" = None,
                      dgk_engine: "PrecomputeEngine | None" = None) -> None:
        """Attach per-cloud :class:`~repro.crypto.precompute.PrecomputeEngine`s.

        ``engine`` serves C1's masks/constants, ``decryptor_engine`` C2's
        re-encryptions and 0/1 constants, ``dgk_engine`` C1's DGK
        re-randomizers — each cloud's engines filled
        with its own randomness, mirroring the non-colluding model.
        Protocols constructed over this cloud (before or after the call —
        resolution is dynamic) pick them up automatically.
        """
        self.setting.attach_engine(engine, decryptor_engine, dgk_engine)

    def reset_counters(self) -> None:
        """Reset crypto-operation counters and channel accounting."""
        self.c1.public_key.counter.reset()
        self.c2.private_key.counter.reset()
        self.channel.reset_accounting()
