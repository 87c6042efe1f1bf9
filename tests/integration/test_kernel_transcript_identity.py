"""The cheaper kernels change no byte on the wire, no share and no count.

Three kernels run under the counted operations — a two-base native
multi-exponentiation (``OpenSSLBackend.multi_powmod``), one inversion per
batch of negations (``BigintBackend.invert_batch``) and C2's obfuscators by
CRT (``DecryptorParty.encrypt_batch``).  Each test answers one seeded query
twice on twin deployments — equal keys, equal rng streams — once as shipped
and once on the forms they replaced: a subclass of the active backend whose
``multi_powmod`` is the product of separate powers and whose
``invert_batch`` inverts element by element, and C2 encrypting on the public
path like every other party.  Every frame on the ``DuplexChannel``, both
result shares and every ``OperationCounter`` field of both parties must be
equal.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.core.sknn_basic import SkNNBasic
from repro.core.sknn_secure import SkNNSecure
from repro.crypto.backend import (
    BigintBackend,
    available_backends,
    get_backend,
    set_backend,
)
from repro.crypto.paillier import generate_keypair
from repro.network.party import DecryptorParty, Party

from tests.integration.helpers import assert_valid_knn_answer
from tests.integration.test_operation_pricing import deploy_secure
from tests.integration.test_strip_step_identity import twin_keypair

N_RECORDS, BIT_LENGTH, K = 6, 5, 2
QUERY = [3, 1]


def reference_backend() -> BigintBackend:
    """The active backend with the pre-change kernels."""
    class Reference(type(get_backend())):
        def multi_powmod(self, bases, exponents, modulus):
            return BigintBackend.multi_powmod(self, bases, exponents,
                                              modulus)

        def invert_batch(self, values, modulus):
            return [self.invert(value, modulus) for value in values]

    return Reference()


def answer(keypair, secure: bool):
    """One seeded query on a fresh deployment: ``(frames, shares, counters,
    neighbours)``."""
    keypair = twin_keypair(keypair)
    table, cloud, client = deploy_secure(keypair, N_RECORDS, BIT_LENGTH,
                                         seed=31)
    protocol = (SkNNSecure(cloud, distance_bits=BIT_LENGTH) if secure
                else SkNNBasic(cloud))
    encrypted_query = client.encrypt_query(QUERY)
    cloud.reset_counters()
    shares = protocol.run(encrypted_query, K)
    # the delivery id is a process-wide serial number, not a function of
    # the seed: leave it out of the comparison
    frames = [(message.sender, message.tag,
               message.payload[1:] if message.tag == "SkNN.masked_results"
               else message.payload)
              for message in cloud.channel.transcript]
    counters = (keypair.public_key.counter.snapshot(),
                keypair.private_key.counter.snapshot())
    neighbours = client.reconstruct(shares)
    assert_valid_knn_answer(table, QUERY, K, neighbours)
    return (frames, (shares.masks_from_c1, shares.masked_values_from_c2),
            counters, neighbours)


@pytest.mark.parametrize("secure", [True, False], ids=["SkNN_m", "SkNN_b"])
@pytest.mark.parametrize("backend_name", available_backends())
def test_shipped_and_reference_kernels_put_the_same_frames_on_the_wire(
        monkeypatch, backend_name, secure):
    keypair = generate_keypair(256, Random(256))
    set_backend(backend_name)
    try:
        shipped = answer(keypair, secure)
        set_backend(reference_backend())
        with monkeypatch.context() as patch:
            patch.setattr(DecryptorParty, "encrypt_batch",
                          Party.encrypt_batch)
            reference = answer(keypair, secure)
    finally:
        set_backend(None)
    frames, shares, counters, _ = shipped
    assert len(frames) > 4 and counters[1]["decryptions"] > 0
    assert frames == reference[0]
    assert shares == reference[1]
    assert counters == reference[2]
    assert shipped == reference
