"""Party abstractions for the two-cloud (federated cloud) setting.

The paper assumes two non-colluding semi-honest cloud providers:

* **C1** stores the attribute-wise encrypted database ``Epk(T)`` and performs
  the bulk of the homomorphic computation.  It knows only the public key.
* **C2** holds the Paillier secret key ``sk`` and assists C1 by decrypting
  carefully randomized intermediate values.

Within the secure sub-protocols of Section 3 the same two roles are called
``P1`` and ``P2``; this module provides both naming conventions on top of the
same classes.  All inter-party data flow goes through a
:class:`~repro.network.channel.DuplexChannel` so the transcript and traffic of
every protocol execution can be inspected.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import used for annotations only
    from repro.crypto.dgk import DGKPrivateKey, DGKPublicKey
    from repro.crypto.precompute import PrecomputeEngine

from repro.crypto.paillier import (
    Ciphertext,
    OperationCounter,
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.exceptions import ConfigurationError
from repro.network.channel import DuplexChannel
from repro.network.latency import LatencyModel

__all__ = ["Party", "EvaluatorParty", "DecryptorParty", "TwoPartySetting"]


class Party:
    """A named protocol participant bound to a public key and a channel."""

    def __init__(self, name: str, public_key: PaillierPublicKey,
                 channel: DuplexChannel, rng: Random | None = None) -> None:
        self.name = name
        self.public_key = public_key
        self.channel = channel
        self.rng = rng if rng is not None else Random()
        #: optional precomputation engine owned by *this* party (set through
        #: :meth:`TwoPartySetting.attach_engine`), where :meth:`encrypt_batch`
        #: draws precomputed factors before the key's own kernel (and which
        #: :meth:`receive` fills while it waits, when it is a query's
        #: lookahead).  Engines are filled with the owning party's
        #: randomness, so they are never shared across the trust boundary:
        #: protocols source P1 material from the evaluator's engine and P2
        #: material from the decryptor's.
        self.engine: "PrecomputeEngine | None" = None
        #: the same for this party's DGK re-randomizers (SMIN's bitwise
        #: part), drawn by :meth:`dgk_encrypt_batch`.
        self.dgk_engine: "PrecomputeEngine | None" = None
        if name not in (channel.endpoint_a, channel.endpoint_b):
            raise ConfigurationError(
                f"party {name!r} is not an endpoint of the supplied channel"
            )

    # -- messaging ----------------------------------------------------------
    def send(self, payload: object, tag: str = "") -> None:
        """Send ``payload`` to the opposite endpoint of the channel."""
        self.channel.send(self.name, payload, tag)

    def receive(self, expected_tag: str | None = None) -> object:
        """Receive the next message addressed to this party.

        Until it is queued, this party's engines compute the factors its
        query draws next (:meth:`~repro.crypto.precompute.QueryLookahead.
        prefetch`), one at a time and taking turns, so the message waits at
        most one factor.
        """
        engines = [engine for engine in (self.engine, self.dgk_engine)
                   if engine is not None]
        while engines and not self.channel.pending(self.name):
            engine = engines.pop(0)
            if engine.prefetch():
                engines.append(engine)
        return self.channel.receive(self.name, expected_tag)

    # -- crypto helpers -------------------------------------------------------
    @property
    def counter(self) -> OperationCounter:
        """The operation counter of the public key this party uses."""
        return self.public_key.counter

    def random_nonzero(self) -> int:
        """Uniform random value in ``[1, N)`` (the paper's ``r in_R Z_N``).

        Random masks must be non-zero: a zero mask would make a "randomized"
        difference reveal the true value with certainty.
        """
        return self.rng.randrange(1, self.public_key.n)

    def encrypt(self, value: int) -> Ciphertext:
        """Encrypt a signed integer under the shared public key."""
        return self.encrypt_batch([value])[0]

    def encrypt_batch(self, values: "list[int]") -> "list[Ciphertext]":
        """Vectorized encryption with this party's randomness source.

        The one place that decides where a cloud party's obfuscators come
        from: this party's :attr:`engine` while it has factors, then the
        key's fixed-base ``h**s`` (see :meth:`~repro.crypto.paillier.
        PaillierPublicKey.obfuscators`) — the kernel the engine's refills
        run too, for one value or for many.
        """
        return self.public_key.encrypt_batch(values, rng=self.rng,
                                             pool=self.engine)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class EvaluatorParty(Party):
    """The party that evaluates over ciphertexts but cannot decrypt (C1/P1).

    ``dgk_key`` is the DGK public key SMIN's comparison runs under, handed
    over by the holder of the key pair: the key itself, or a callable that
    derives it on first use (so a deployment that never compares never
    derives one), or ``None`` where no comparison is provisioned.
    """

    def __init__(self, name: str, public_key: PaillierPublicKey,
                 channel: DuplexChannel, rng: Random | None = None,
                 dgk_key: "DGKPublicKey | Callable[[], DGKPublicKey] | None"
                 = None) -> None:
        super().__init__(name, public_key, channel, rng)
        self._dgk_key = dgk_key

    @property
    def dgk_key(self) -> "DGKPublicKey":
        """The DGK public key (derived now if it was handed over lazily)."""
        key = self._dgk_key
        if callable(key):
            key = self._dgk_key = key()
        if key is None:
            raise ConfigurationError(
                f"{self.name} holds no DGK public key: SMIN's comparison "
                f"needs one (provision with distance_bits)")
        return key

    def dgk_encrypt_batch(self, values: "list[int]") -> "list[int]":
        """DGK encryptions with this party's randomness, re-randomizers from
        :attr:`dgk_engine` first (:meth:`encrypt_batch`'s rule)."""
        return self.dgk_key.encrypt_batch(values, rng=self.rng,
                                          pool=self.dgk_engine)


class DecryptorParty(Party):
    """The party that holds the Paillier secret key (C2/P2)."""

    def __init__(self, name: str, private_key: PaillierPrivateKey,
                 channel: DuplexChannel, rng: Random | None = None) -> None:
        super().__init__(name, private_key.public_key, channel, rng)
        self.private_key = private_key
        #: optional override for where decrypted result shares go (the C2
        #: daemon points this at its client-facing share mailbox); ``None``
        #: keeps them in-process for the simulated runtime.
        self.share_sink = None
        self._deliveries: dict[int, list[list[int]]] = {}

    def encrypt_batch(self, values: "list[int]") -> "list[Ciphertext]":
        """Vectorized encryption by the party that holds ``p`` and ``q``.

        Engine first, like every party; what it does not cover is the CRT
        form of the same ``h**s`` (:meth:`~repro.crypto.paillier.
        PaillierPrivateKey.obfuscators`) — the ciphertexts
        :meth:`Party.encrypt_batch` would return, for two half-size powers
        each.
        """
        return self.private_key.encrypt_batch(values, rng=self.rng,
                                              pool=self.engine)

    # -- result-share delivery (steps 4-6 of Algorithm 5) ---------------------
    def deliver_share(self, delivery_id: int,
                      masked_values: "list[list[int]]") -> None:
        """Hand the decrypted masked result values to Bob.

        In the paper C2 sends these directly to the query user on a separate
        link.  The simulated runtime stores them for the driver to collect
        (:meth:`take_delivery`); a daemon overrides :attr:`share_sink` so the
        share lands in the mailbox its Bob clients fetch from over TCP.
        """
        if self.share_sink is not None:
            self.share_sink(delivery_id, masked_values)
            return
        self._deliveries[delivery_id] = masked_values

    def take_delivery(self, delivery_id: int) -> "list[list[int]]":
        """Collect (and forget) a share stored by :meth:`deliver_share`."""
        try:
            return self._deliveries.pop(delivery_id)
        except KeyError:
            raise ConfigurationError(
                f"no result share stored under delivery id {delivery_id}"
            ) from None

    @property
    def dgk_private_key(self) -> "DGKPrivateKey":
        """The DGK key pair derived from this party's Paillier secret key
        (on first use; see :meth:`~repro.crypto.paillier.
        PaillierPrivateKey.dgk`)."""
        return self.private_key.dgk()

    def dgk_encrypt_batch(self, values: "list[int]") -> "list[int]":
        """The key holder's DGK encryptions (CRT re-randomizers)."""
        return self.dgk_private_key.encrypt_batch(values, rng=self.rng,
                                                  pool=self.dgk_engine)

    def decrypt_signed(self, ciphertext: Ciphertext) -> int:
        """Decrypt with signed decoding (values above N/2 read as negative)."""
        return self.private_key.decrypt(ciphertext)

    def decrypt_residue(self, ciphertext: Ciphertext) -> int:
        """Decrypt to the raw residue in ``[0, N)`` (no signed decoding)."""
        return self.private_key.decrypt_raw_residue(ciphertext)

    def decrypt_residue_batch(self, ciphertexts: "list[Ciphertext]") -> "list[int]":
        """Vectorized decryption to raw residues (no signed decoding)."""
        return self.private_key.decrypt_residue_batch(ciphertexts)


@dataclass
class TwoPartySetting:
    """The standard two-party environment used by every protocol in the paper.

    Bundles the evaluator (C1), the decryptor (C2) and their shared channel.
    Construct it with :meth:`create` from a key pair; protocol classes then
    take a ``TwoPartySetting`` instead of loose parties, which keeps call
    sites short and guarantees both parties share one channel.
    """

    evaluator: EvaluatorParty
    decryptor: DecryptorParty
    channel: DuplexChannel

    @classmethod
    def create(cls, keypair: PaillierKeyPair, rng: Random | None = None,
               evaluator_name: str = "C1", decryptor_name: str = "C2",
               latency_model: LatencyModel | None = None) -> "TwoPartySetting":
        """Build a fresh two-party setting from a Paillier key pair.

        Args:
            keypair: the key pair; the public part goes to both parties, the
                private part only to the decryptor, and the evaluator gets
                the public half of the DGK key derived from it, on first
                use.
            rng: optional deterministic randomness source shared by both
                parties' protocol masks (tests only).
            evaluator_name: channel endpoint name for C1.
            decryptor_name: channel endpoint name for C2.
            latency_model: optional network latency model for the channel.
        """
        channel = DuplexChannel(evaluator_name, decryptor_name, latency_model)
        evaluator_rng = rng
        decryptor_rng = Random(rng.random()) if rng is not None else None
        evaluator = EvaluatorParty(evaluator_name, keypair.public_key, channel,
                                   evaluator_rng,
                                   dgk_key=keypair.private_key.dgk_public_key)
        decryptor = DecryptorParty(decryptor_name, keypair.private_key, channel,
                                   decryptor_rng)
        return cls(evaluator=evaluator, decryptor=decryptor, channel=channel)

    @property
    def public_key(self) -> PaillierPublicKey:
        """The shared Paillier public key."""
        return self.evaluator.public_key

    @property
    def engine(self) -> "PrecomputeEngine | None":
        """The evaluator's (P1's) precomputation engine (or ``None``).

        Stored on the party objects so that every ``TwoPartySetting`` view
        of the same deployment (they are constructed on the fly) resolves to
        the same engines, regardless of attachment order.
        """
        return self.evaluator.engine

    def attach_engine(self, engine: "PrecomputeEngine | None",
                      decryptor_engine: "PrecomputeEngine | None" = None,
                      dgk_engine: "PrecomputeEngine | None" = None) -> None:
        """Attach per-party precomputation engines to this deployment.

        ``engine`` becomes the source of the evaluator's (P1's) obfuscators
        (masks, SMIN/SBD constants); ``decryptor_engine`` (optional) that of
        the decryptor's (P2's) re-encryptions and parity/comparison/indicator
        bits.  The two are kept separate on purpose: each party's pool holds
        that party's own randomness, matching the paper's non-colluding model —
        a missing decryptor engine simply means P2 encrypts inline.
        ``dgk_engine`` serves the evaluator's DGK re-randomizers.  Pass
        ``None`` to detach.
        """
        self.evaluator.engine = engine
        self.decryptor.engine = decryptor_engine
        self.evaluator.dgk_engine = dgk_engine

    def reset_counters(self) -> None:
        """Reset crypto-operation counters and channel accounting."""
        self.evaluator.public_key.counter.reset()
        self.decryptor.private_key.counter.reset()
        self.channel.reset_accounting()
