"""Secure Bit-Decomposition (SBD) protocol.

P1 holds ``Epk(z)`` with ``0 <= z < 2**l``; P2 holds the secret key.  The
protocol outputs ``[z] = <Epk(z_1), ..., Epk(z_l)>`` (most significant bit
first) to P1 without revealing ``z`` to either party.

The paper does not re-derive SBD; it uses the efficient probabilistic protocol
of Samanthula & Jiang (ASIACCS 2013, reference [21]), which extracts one bit
per round starting from the least significant bit:

1. P1 additively masks the current value: ``Y = Epk(z) * Epk(r)`` with ``r``
   drawn uniformly from ``[0, N - 2**l)`` so that ``z + r`` never wraps
   around ``N``.  Because there is no wrap-around, the least significant bit
   of ``y = z + r`` equals ``z_lsb XOR r_lsb``.
2. P2 decrypts ``y`` and returns ``Epk(y mod 2)``.
3. P1 un-flips the parity when its mask ``r`` was odd, obtaining
   ``Epk(z_lsb)``, and homomorphically computes the encryption of
   ``(z - z_lsb) / 2`` (multiplication by ``2^{-1} mod N`` — exact because
   ``z - z_lsb`` is even) to continue with the next bit.

The cost is ``l`` rounds with O(1) encryptions/decryptions each, i.e. O(l)
operations total, matching the complexity the paper quotes for [21].  Each
round runs over every value of a batch (``run(z)`` is the batch of one) and
draws the round's masks as one ``take_masks`` batch.

What each party sees: P2 only ever sees masked values ``z + r``; P1 only sees
ciphertexts.  (The original protocol is "probabilistic" in that its failure
probability is negligible; here failure cannot occur because the mask range
excludes wrap-around by construction.)
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto import numtheory as nt
from repro.crypto.paillier import Ciphertext
from repro.protocols.base import MASK_SBD, TwoPartyProtocol, traced_round

__all__ = ["SecureBitDecomposition"]


class SecureBitDecomposition(TwoPartyProtocol):
    """Two-party secure bit decomposition of a Paillier-encrypted value."""

    name = "SBD"

    P2_STEPS = {
        "SBD.batch_masked_values": "_p2_parity_of_masked_batch",
    }

    def __init__(self, setting, bit_length: int) -> None:
        """Create an SBD instance for values in ``[0, 2**bit_length)``.

        Args:
            setting: the two-party environment.
            bit_length: the paper's domain-size parameter ``l``.
        """
        super().__init__(setting)
        self.require(bit_length > 0, "bit length must be positive")
        self.require(
            bit_length + 2 < setting.public_key.n.bit_length(),
            "bit length must be well below the key size so masks cannot wrap",
        )
        self.bit_length = bit_length
        self._inv_two = nt.modinv(2, self.pk.n)

    @traced_round("run")
    def run(self, enc_z: Ciphertext) -> list[Ciphertext]:
        """Compute ``[z]`` (MSB first) from ``Epk(z)``.

        The one-value case of :meth:`run_batch`.

        Args:
            enc_z: encryption of a value in ``[0, 2**l)``.

        Returns:
            List of ``l`` ciphertexts, each an encryption of one bit of ``z``,
            most significant bit first.  Known only to P1.
        """
        return self.run_batch([enc_z])[0]

    @traced_round("run_batch", sized=True)
    def run_batch(self, enc_values: Sequence[Ciphertext]
                  ) -> list[list[Ciphertext]]:
        """Bit-decompose a whole vector of encrypted values at once.

        The protocol's one implementation (:meth:`run` is the one-value
        batch): each of the ``l`` bit rounds processes *every* value in one
        round — sent as two half-batches in flight from
        :data:`~repro.protocols.base.PIPELINE_MIN_ITEMS` values up, so
        ``2 * l`` messages below that and ``4 * l`` from there on — at the
        same per-value operation counts whatever the batch size.  SkNN_m
        uses this to decompose all ``n`` record distances up front.

        Returns:
            One bit vector (MSB first) per input value, in input order.
        """
        if not enc_values:
            return []
        count = len(enc_values)
        current = list(enc_values)
        per_value_bits: list[list[Ciphertext]] = [[] for _ in range(count)]
        for _ in range(self.bit_length):
            enc_bits, current = self._extract_lsb_batch(current)
            for bits, enc_bit in zip(per_value_bits, enc_bits):
                bits.append(enc_bit)
        return [list(reversed(bits)) for bits in per_value_bits]

    def _extract_lsb_batch(
        self, enc_values: list[Ciphertext]
    ) -> tuple[list[Ciphertext], list[Ciphertext]]:
        """One bit round over every value: LSBs and halved remainders.

        Each chunk's masks — ``r`` uniform in ``[0, N - 2**l)``, so
        ``z + r`` never wraps — are one ``take_masks`` batch; the parity and
        un-flip constants are one ``encrypt_batch`` of the party that needs
        them.
        """
        def mask(chunk):
            mask_tuples = self.take_masks(len(chunk), MASK_SBD,
                                          bits=self.bit_length)
            return (self.pk.add_batch(chunk, [c for _, c in mask_tuples]),
                    [r for r, _ in mask_tuples])

        def unflip_and_halve(chunk, masks, parities):
            self.require_cipher_list(parities, len(chunk),
                                     "masked-parity reply")
            # Un-flip the parity wherever P1's mask was odd: z_lsb = 1 - b,
            # so E(1) * E(b)^{N-1} — one E(1) and one subtraction per odd
            # mask.
            odd_indices = [i for i, r in enumerate(masks) if r % 2 == 1]
            enc_bits = list(parities)
            if odd_indices:
                ones = self.p1.encrypt_batch([1] * len(odd_indices))
                flipped = self.pk.add_batch(
                    ones, self.neg_batch([parities[i] for i in odd_indices]))
                for position, index in enumerate(odd_indices):
                    enc_bits[index] = flipped[position]

            # E((value - bit) / 2) for every value: subtract the bit,
            # multiply by 2^{-1} mod N — exact because value - bit is even.
            halved = self.pk.scalar_mul_batch(
                self.pk.add_batch(chunk, self.neg_batch(enc_bits)),
                self._inv_two,
            )
            return list(zip(enc_bits, halved))

        enc_bits, halved = zip(*self.run_pipelined(
            enc_values, "SBD.batch_masked_values",
            "SBD.batch_masked_parities", mask, unflip_and_halve))
        return list(enc_bits), list(halved)

    # -- P2 step -------------------------------------------------------------------
    def _p2_parity_of_masked_batch(self) -> None:
        """P2 shape-checks the batch, decrypts it and replies with parities."""
        received_masked = self.p2.receive(expected_tag="SBD.batch_masked_values")
        self.require_cipher_rows([received_masked], "masked-value batch")
        parities = [y % 2
                    for y in self.p2.decrypt_residue_batch(received_masked)]
        self.p2.send(self.p2.encrypt_batch(parities),
                     tag="SBD.batch_masked_parities")
