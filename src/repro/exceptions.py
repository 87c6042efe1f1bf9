"""Exception hierarchy for the SkNN reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the broad failure classes (cryptography, protocol,
database, configuration).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class CryptoError(ReproError):
    """Base class for cryptographic failures (key generation, enc/dec)."""


class KeyGenerationError(CryptoError):
    """Raised when Paillier key generation cannot produce a valid key pair."""


class EncryptionError(CryptoError):
    """Raised when a plaintext cannot be encrypted (e.g. out of range)."""


class DecryptionError(CryptoError):
    """Raised when a ciphertext cannot be decrypted with the given key."""


class KeyMismatchError(CryptoError):
    """Raised when ciphertexts under different public keys are combined."""


class SerializationError(ReproError):
    """Raised when keys, ciphertexts or tables fail to (de)serialize."""


class ProtocolError(ReproError):
    """Base class for secure two-party protocol failures."""


class DomainError(ProtocolError):
    """Raised when a value falls outside the declared domain ``[0, 2**l)``."""


class ChannelError(ReproError):
    """Raised on misuse of the in-memory communication channel."""


class DeadlineExceeded(ChannelError):
    """Raised when a blocking channel/socket operation outlives its deadline.

    Every wait in the distributed runtime (frame reads, share-mailbox waits,
    request/reply round trips) is bounded; when the bound is hit the caller
    gets this typed error instead of a hung thread.  The failure is
    *retriable*: the peer may simply be slow, so retry layers treat it as a
    transient fault.
    """

    retriable = True


class PeerUnavailable(ChannelError):
    """Raised when the remote party cannot be reached or went away.

    Covers refused/reset/broken connections and clean EOF mid-protocol.
    Like :class:`DeadlineExceeded` this is a *retriable* transport failure:
    the peer may be restarting, so retry layers reconnect and try again.
    """

    retriable = True


class ServiceUnavailable(ReproError):
    """Raised when a serving layer cannot answer and a retry may succeed.

    The worker pool (:class:`~repro.core.parallel.PersistentWorkerPool`)
    raises it when worker crashes outlast its respawn rounds, so the query
    fails typed (retry after :attr:`retry_after_seconds`) instead of
    returning a partial top-k.
    """

    retriable = True

    def __init__(self, message: str,
                 retry_after_seconds: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class DatabaseError(ReproError):
    """Base class for database substrate failures."""


class SchemaError(DatabaseError):
    """Raised when records do not conform to the declared schema."""


class QueryError(DatabaseError):
    """Raised when a kNN query is malformed (wrong arity, bad k, ...)."""


class ConfigurationError(ReproError):
    """Raised when a system component is configured inconsistently."""


class CorruptStateError(ReproError):
    """Raised when persisted daemon state fails its integrity checks.

    A snapshot or journal that is torn, truncated or bit-flipped beyond
    what a single crash can explain (see
    :mod:`repro.resilience.durability`) raises this instead of a raw
    decode error, so recovery code can reject the state — log, discard,
    start fresh — rather than crash the daemon at startup.
    """
