"""Secure Multiplication (SM) protocol — Algorithm 1 of the paper.

Given ``Epk(a)`` and ``Epk(b)`` held by P1 and the secret key held by P2, the
protocol returns ``Epk(a * b)`` to P1 without revealing ``a`` or ``b`` to
either party.  It relies on the identity (Equation 1 of the paper)::

    a * b = (a + r_a)(b + r_b) - a*r_b - b*r_a - r_a*r_b      (mod N)

P1 additively masks both operands with fresh random values, P2 decrypts the
masked operands, multiplies them in the clear and returns the encryption of
the product, and P1 strips the three cross terms homomorphically (step 3):
``E(a)^(N - r_b) * E(b)^(N - r_a)`` is one two-base multi-exponentiation per
pair (:meth:`~repro.crypto.paillier.PaillierPublicKey.weighted_sum_batch` —
one shared squaring chain, still counted as two exponentiations), and
``r_a * r_b`` is a plaintext-constant addition.

What each party sees
--------------------
* P2 sees ``a + r_a mod N`` and ``b + r_b mod N`` — uniformly random values
  because the masks are uniform in ``Z_N``.
* P1 sees only ciphertexts.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.paillier import Ciphertext
from repro.protocols.base import TwoPartyProtocol, traced_round

__all__ = ["SecureMultiplication"]


class SecureMultiplication(TwoPartyProtocol):
    """Two-party secure multiplication of Paillier-encrypted values."""

    name = "SM"

    P2_STEPS = {
        "SM.batch_masked_operands": "_p2_multiply_masked_batch",
        "SM.batch_masked_squares": "_p2_square_masked_batch",
    }

    @traced_round("run")
    def run(self, enc_a: Ciphertext, enc_b: Ciphertext) -> Ciphertext:
        """Compute ``Epk(a * b)`` from ``Epk(a)`` and ``Epk(b)``.

        The one-pair case of :meth:`run_batch`.

        Args:
            enc_a: ``Epk(a)`` held by P1.
            enc_b: ``Epk(b)`` held by P1.

        Returns:
            ``Epk(a * b mod N)``, known only to P1.
        """
        return self.run_batch([(enc_a, enc_b)])[0]

    # -- P2 steps ---------------------------------------------------------------
    def _p2_multiply_masked_batch(self) -> None:
        """Step 2: shape-check the batch (it arrives from outside the process
        on a C2 daemon), decrypt every masked pair, multiply in the clear."""
        n = self.pk.n
        received = self.p2.receive(expected_tag="SM.batch_masked_operands")
        self.require_cipher_rows(received, "masked-operand batch", 2)
        received_a, received_b = received
        h_a = self.p2.decrypt_residue_batch(received_a)
        h_b = self.p2.decrypt_residue_batch(received_b)
        products = [(x * y) % n for x, y in zip(h_a, h_b)]
        self.p2.send(self.p2.encrypt_batch(products),
                     tag="SM.batch_masked_products")

    def _p2_square_masked_batch(self) -> None:
        """Squaring step 2: decrypt each masked value and square it."""
        n = self.pk.n
        received_masked = self.p2.receive(expected_tag="SM.batch_masked_squares")
        self.require_cipher_rows([received_masked], "masked-square batch")
        h_values = self.p2.decrypt_residue_batch(received_masked)
        self.p2.send(self.p2.encrypt_batch([(h * h) % n for h in h_values]),
                     tag="SM.batch_square_products")

    # -- batched execution -------------------------------------------------------
    @traced_round("run_batch", sized=True)
    def run_batch(self, pairs: Sequence[tuple[Ciphertext, Ciphertext]]
                  ) -> list[Ciphertext]:
        """Compute ``Epk(a_i * b_i)`` for a whole vector of operand pairs.

        The protocol's one implementation (:meth:`run` is the one-pair
        batch): one round, sent as two half-batches in flight from
        :data:`~repro.protocols.base.PIPELINE_MIN_ITEMS` pairs up — two
        messages below that, four from there on, whatever the batch size —
        at 3 encryptions, 2 decryptions, 2 exponentiations and 5
        homomorphic additions per pair; encryptions draw their obfuscators
        from the key's fixed-base window table and decryptions run through
        the vectorized CRT kernel.
        """
        n = self.pk.n

        def mask(chunk):
            # Step 1: P1 masks every operand with fresh randomness — one
            # draw per chunk, a pair's two masks adjacent in it.
            mask_tuples = self.take_masks(2 * len(chunk))
            masks_a, enc_masks_a = zip(*mask_tuples[0::2])
            masks_b, enc_masks_b = zip(*mask_tuples[1::2])
            masked_a = self.pk.add_batch([a for a, _ in chunk], enc_masks_a)
            masked_b = self.pk.add_batch([b for _, b in chunk], enc_masks_b)
            return [masked_a, masked_b], (masks_a, masks_b)

        def strip(chunk, masks, products):
            # Step 3: P1 strips the cross terms from every product — one
            # two-base multi-exponentiation E(a)^{N-r_b} * E(b)^{N-r_a} per
            # pair.
            self.require_cipher_list(products, len(chunk),
                                     "masked-product reply")
            masks_a, masks_b = masks
            cross = self.pk.weighted_sum_batch(
                chunk, [(n - r_b, n - r_a)
                        for r_a, r_b in zip(masks_a, masks_b)])
            stripped = self.pk.add_batch(products, cross)
            return [
                self.add_plain(cipher, -(r_a * r_b) % n)
                for cipher, r_a, r_b in zip(stripped, masks_a, masks_b)
            ]

        # Step 2 (P2 decrypts all masked operands and multiplies them) runs
        # between the two, once per chunk.
        return self.run_pipelined(
            pairs, "SM.batch_masked_operands", "SM.batch_masked_products",
            mask, strip)

    @traced_round("run_square_batch", sized=True)
    def run_square_batch(self, ciphertexts: Sequence[Ciphertext]
                         ) -> list[Ciphertext]:
        """Compute ``Epk(a_i^2)`` for a vector — SM's squaring primitive.

        The specialization of :meth:`run_batch` to squaring pairs ``(a, a)``:
        because both operands are equal, *one* additive mask per element
        suffices — P1 sends ``E(a + r)``, P2 decrypts ``h = a + r``, squares
        in the clear and returns ``E(h^2)``, and P1 strips
        ``a^2 = h^2 - 2*r*a - r^2`` with a single exponentiation
        ``E(a)^{N - 2r}`` plus a plaintext-constant addition.

        Per element: 2 encryptions (both precomputable), 1 decryption and 1
        exponentiation — versus 3/2/2 for the generic pair path.  P2 sees
        only the uniformly masked value ``a + r mod N``.

        Not used by the distance scan: SSED needs only the *sum* of a
        record's squares, so :mod:`repro.protocols.ssed` runs the same
        masking with the squares summed at P2 and one ciphertext returned
        per record.  This entry point remains for callers that need the
        individual squares.
        """
        n = self.pk.n

        def mask(chunk):
            mask_tuples = self.take_masks(len(chunk))
            return (self.pk.add_batch(chunk, [c for _, c in mask_tuples]),
                    [r for r, _ in mask_tuples])

        def strip(chunk, masks, squares):
            self.require_cipher_list(squares, len(chunk),
                                     "masked-square reply")
            unmask = self.pk.scalar_mul_batch(
                chunk, [(n - 2 * r) % n for r in masks])
            return [
                self.add_plain(cipher, -(r * r) % n)
                for cipher, r in zip(self.pk.add_batch(squares, unmask), masks)
            ]

        return self.run_pipelined(
            list(ciphertexts), "SM.batch_masked_squares",
            "SM.batch_square_products", mask, strip)
