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
        "SM.masked_operands": "_p2_multiply_masked",
        "SM.batch_masked_operands": "_p2_multiply_masked_batch",
        "SM.batch_masked_squares": "_p2_square_masked_batch",
    }

    @traced_round("run")
    def run(self, enc_a: Ciphertext, enc_b: Ciphertext) -> Ciphertext:
        """Compute ``Epk(a * b)`` from ``Epk(a)`` and ``Epk(b)``.

        Args:
            enc_a: ``Epk(a)`` held by P1.
            enc_b: ``Epk(b)`` held by P1.

        Returns:
            ``Epk(a * b mod N)``, known only to P1.
        """
        masked_a, masked_b, r_a, r_b = self._p1_mask_operands(enc_a, enc_b)
        self.p1.send([masked_a, masked_b], tag="SM.masked_operands")
        self.p2_step("SM.masked_operands")

        received = self.p1.receive(expected_tag="SM.masked_product")
        return self._p1_unmask(received, enc_a, enc_b, r_a, r_b)

    # -- P1 steps ---------------------------------------------------------------
    def _p1_mask_operands(
        self, enc_a: Ciphertext, enc_b: Ciphertext
    ) -> tuple[Ciphertext, Ciphertext, int, int]:
        """Step 1: P1 additively masks both operands with fresh randomness.

        The mask tuples ``(r, E(r))`` come from the precomputation engine
        when one is attached, turning the two mask encryptions into hot-path
        multiplications; the fallback samples and encrypts inline.
        """
        r_a, enc_r_a = self.take_mask()
        r_b, enc_r_b = self.take_mask()
        masked_a = enc_a + enc_r_a
        masked_b = enc_b + enc_r_b
        return masked_a, masked_b, r_a, r_b

    def _p1_unmask(self, product_cipher: Ciphertext, enc_a: Ciphertext,
                   enc_b: Ciphertext, r_a: int, r_b: int) -> Ciphertext:
        """Step 3: P1 removes the cross terms from ``E((a+r_a)(b+r_b))``."""
        n = self.pk.n
        # E(a)^{N - r_b} * E(b)^{N - r_a} == E(-a*r_b - b*r_a), as one
        # two-base multi-exponentiation
        [cross] = self.pk.weighted_sum_batch(
            [[enc_a, enc_b]], [[n - r_b, n - r_a]])
        # result = h' * cross * E(r_a * r_b)^{N-1} == ... - r_a*r_b
        return self.add_plain(product_cipher + cross, -(r_a * r_b) % n)

    # -- P2 steps ---------------------------------------------------------------
    def _p2_multiply_masked(self) -> None:
        """Step 2: P2 decrypts the masked operands and multiplies them."""
        masked_a, masked_b = self.p2.receive(expected_tag="SM.masked_operands")
        h_a = self.p2.decrypt_residue(masked_a)
        h_b = self.p2.decrypt_residue(masked_b)
        h = (h_a * h_b) % self.pk.n
        self.p2.send(self.p2.encrypt(h), tag="SM.masked_product")

    def _p2_multiply_masked_batch(self) -> None:
        """Batched step 2: decrypt every masked pair, multiply in the clear."""
        n = self.pk.n
        received_a, received_b = self.p2.receive(
            expected_tag="SM.batch_masked_operands")
        h_a = self.p2.decrypt_residue_batch(received_a)
        h_b = self.p2.decrypt_residue_batch(received_b)
        products = [(x * y) % n for x, y in zip(h_a, h_b)]
        self.p2.send(self.p2.encrypt_batch(products),
                     tag="SM.batch_masked_products")

    def _p2_square_masked_batch(self) -> None:
        """Squaring step 2: decrypt each masked value and square it."""
        n = self.pk.n
        received_masked = self.p2.receive(expected_tag="SM.batch_masked_squares")
        h_values = self.p2.decrypt_residue_batch(received_masked)
        self.p2.send(self.p2.encrypt_batch([(h * h) % n for h in h_values]),
                     tag="SM.batch_square_products")

    # -- batched execution -------------------------------------------------------
    @traced_round("run_batch", sized=True)
    def run_batch(self, pairs: Sequence[tuple[Ciphertext, Ciphertext]]
                  ) -> list[Ciphertext]:
        """Compute ``Epk(a_i * b_i)`` for a whole vector of operand pairs.

        Functionally (and in per-pair operation counts: 3 encryptions, 2
        decryptions, 2 exponentiations, 5 homomorphic additions) identical to
        ``[self.run(a, b) for a, b in pairs]``, but executed as one protocol
        round: both parties exchange two messages total instead of two per
        pair, every encryption draws its obfuscator from the key's fixed-base
        window table, and decryptions run through the vectorized CRT kernel.
        The protocols' scan loops call this with all ``n`` records of a round.
        """
        if not pairs:
            return []
        n = self.pk.n
        enc_a_vec = [a for a, _ in pairs]
        enc_b_vec = [b for _, b in pairs]

        # Step 1: P1 masks every operand with fresh randomness (precomputed
        # mask tuples when an engine is attached).
        masks_a, enc_masks_a = zip(*self.take_masks(len(pairs)))
        masks_b, enc_masks_b = zip(*self.take_masks(len(pairs)))
        masked_a = self.pk.add_batch(enc_a_vec, enc_masks_a)
        masked_b = self.pk.add_batch(enc_b_vec, enc_masks_b)
        self.p1.send([masked_a, masked_b], tag="SM.batch_masked_operands")

        # Step 2: P2 decrypts all masked operands and multiplies them.
        self.p2_step("SM.batch_masked_operands")

        # Step 3: P1 strips the cross terms from every product — one
        # two-base multi-exponentiation E(a)^{N-r_b} * E(b)^{N-r_a} per pair.
        received = self.p1.receive(expected_tag="SM.batch_masked_products")
        cross = self.pk.weighted_sum_batch(
            pairs, [(n - r_b, n - r_a)
                    for r_a, r_b in zip(masks_a, masks_b)])
        stripped = self.pk.add_batch(received, cross)
        return [
            self.add_plain(cipher, -(r_a * r_b) % n)
            for cipher, r_a, r_b in zip(stripped, masks_a, masks_b)
        ]

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
        if not ciphertexts:
            return []
        n = self.pk.n
        mask_tuples = self.take_masks(len(ciphertexts))
        masked = self.pk.add_batch(list(ciphertexts),
                                   [c for _, c in mask_tuples])
        self.p1.send(masked, tag="SM.batch_masked_squares")
        self.p2_step("SM.batch_masked_squares")

        received = self.p1.receive(expected_tag="SM.batch_square_products")
        unmask = self.pk.scalar_mul_batch(
            list(ciphertexts), [(n - 2 * r) % n for r, _ in mask_tuples])
        stripped = self.pk.add_batch(received, unmask)
        return [
            self.add_plain(cipher, -(r * r) % n)
            for cipher, (r, _) in zip(stripped, mask_tuples)
        ]
