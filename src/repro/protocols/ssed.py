"""Secure Squared Euclidean Distance (SSED) protocol — Algorithm 2.

P1 holds two attribute-wise encrypted vectors ``Epk(X)`` and ``Epk(Y)``; with
the help of P2 (who holds the secret key) it computes ``Epk(|X - Y|^2)``
without either party learning ``X`` or ``Y``.

The paper evaluates

    |X - Y|^2 = sum_j (x_j - y_j)^2

with one Secure Multiplication per attribute.  P1 never uses the individual
squares, only their sum, so this implementation runs the ``m`` squarings of a
record as **one fused round** with the same masking identity SM is built on
(Equation 1 of the paper, specialized to ``a == b``)::

    d^2 = (d + r)^2 - 2*r*d - r^2                              (mod N)

1. P1 computes ``E(d_j) = E(y_j) * E(-x_j)`` locally, draws one fresh mask
   ``r_j`` per attribute and sends ``E(d_j + r_j)``.  Given the attributes'
   width ``a``, the differences are ``a + 1``-bit (``|d_j| < 2**a``) and the
   mask is short, ``r_j = N - s_j`` with ``s_j`` uniform in ``[1,
   2**(a+1+sigma)]`` (:data:`~repro.crypto.precompute.MASK_SHORT`);
   without it, uniform in ``Z_N``.
2. P2 decrypts the residues ``h_j = d_j + r_j mod N``, computes
   ``H = sum_j h_j^2 mod N`` in the clear and returns the single ciphertext
   ``E(H)``.
3. P1 strips the cross terms:
   ``E(|X - Y|^2) = E(H) * prod_j E(d_j)^(N - 2*r_j) * E(-sum_j r_j^2)``.
   The product is **one multi-exponentiation per record**
   (:meth:`~repro.crypto.paillier.PaillierPublicKey.weighted_sum_batch`):
   the ``m`` powers share a single squaring chain instead of repeating it
   ``m`` times, and are still counted as ``m`` exponentiations.  The kernel
   reduces each exponent mod ``N``, so a short mask's ``N - 2*r_j`` is the
   short ``2*s_j``: ``a + 2 + sigma`` bits instead of ``K``.

Per record that is ``m`` P1 encryptions, ``m`` P2 decryptions, one P2
encryption and ``m`` exponentiations (plus the query negation, hoisted across
records), against ``3m`` / ``2m`` / ``3m`` for ``m`` generic SM runs — and one
ciphertext comes back instead of ``m``.  The sequence is the same with and
without a precomputation engine: a pool only changes *when* an obfuscator
exponentiation was paid, never which messages are exchanged.

What each party sees
--------------------
* P2 sees ``d_j - s_j mod N`` for independent short ``s_j``: within
  ``2**-sigma`` (``sigma = 40``) of a distribution that does not depend on
  ``d_j``, the statistical hiding of the standard comparison protocols
  (and uniform in ``Z_N`` without a width).  A difference wider than the
  width — only a query outside the schema's ranges makes one, and Bob
  refuses those — is hidden less, which costs Bob's own query alone.
  Summing in the clear adds nothing: ``H`` is a function of values P2 already
  holds.  All arithmetic is mod ``N``, so negative differences (``N - |d|``)
  and masks that wrap past ``N`` cancel exactly in step 3.
* P1 sees only ciphertexts (one fresh encryption per record).
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.paillier import Ciphertext
from repro.crypto.precompute import MASK_SHORT, MASK_ZN
from repro.protocols.base import TwoPartyProtocol, traced_round

__all__ = ["SecureSquaredEuclideanDistance"]


class SecureSquaredEuclideanDistance(TwoPartyProtocol):
    """Two-party secure squared Euclidean distance over encrypted vectors."""

    name = "SSED"

    P2_STEPS = {
        "SSED.masked_differences": "_p2_sum_masked_squares",
    }

    @traced_round("run")
    def run(self, enc_x: Sequence[Ciphertext],
            enc_y: Sequence[Ciphertext],
            attribute_bits: int | None = None) -> Ciphertext:
        """Compute ``Epk(|X - Y|^2)`` from ``Epk(X)`` and ``Epk(Y)``.

        The single-record case of :meth:`run_many`.

        Args:
            enc_x: attribute-wise encryption of the m-dimensional vector X.
            enc_y: attribute-wise encryption of the m-dimensional vector Y.
            attribute_bits: the attributes' width (see :meth:`run_many`).

        Returns:
            ``Epk(sum_j (x_j - y_j)^2)``, known only to P1.
        """
        self.require(len(enc_x) == len(enc_y),
                     f"dimension mismatch: {len(enc_x)} vs {len(enc_y)}")
        return self.run_many(enc_x, [enc_y], attribute_bits)[0]

    @traced_round("run_many")
    def run_many(self, enc_x: Sequence[Ciphertext],
                 enc_y_list: Sequence[Sequence[Ciphertext]],
                 attribute_bits: int | None = None) -> list[Ciphertext]:
        """Compute ``Epk(|X - Y_i|^2)`` against many vectors in one round.

        The distance scan of Algorithms 5 and 6 (step 2), where ``X`` is the
        query and the ``Y_i`` are the ``n`` table records: ``n*m + n``
        ciphertexts in total, in two messages below
        :data:`~repro.protocols.base.PIPELINE_MIN_ITEMS` records and four —
        two half-scans in flight — from there on.  The shared operand is negated once
        per attribute instead of once per (record, attribute) pair — valid
        because ``(x - y)^2 == (y - x)^2`` — so the scan costs ``n*m + m``
        exponentiations, ``n*m + n`` encryptions and ``n*m`` decryptions
        (``ssed_scan_cost`` in the analysis layer).

        Args:
            enc_x: the shared m-dimensional encrypted vector (the query).
            enc_y_list: the encrypted vectors to compute distances against;
                entries longer than ``m`` are truncated to the leading ``m``
                attributes (trailing label columns do not join the distance).
            attribute_bits: ``a`` with every attribute in ``[0, 2**a)``
                (:meth:`~repro.db.schema.Schema.attribute_bit_length`), so
                every difference is ``a + 1``-bit signed.  The masks are
                then short and so are the strip powers; ``None`` masks
                uniformly in ``Z_N`` (full-size strip powers).

        Returns:
            ``Epk(|X - Y_i|^2)`` for every ``Y_i``, in input order.
        """
        self.require(len(enc_x) > 0, "vectors must have at least one attribute")
        width = len(enc_x)
        for enc_y in enc_y_list:
            self.require(len(enc_y) >= width,
                         f"dimension mismatch: {len(enc_y)} vs {width}")
        if not enc_y_list:
            return []
        n = self.pk.n
        # a-bit attributes differ by a + 1 bits, signed
        kind, bits = ((MASK_ZN, None) if attribute_bits is None
                      else (MASK_SHORT, attribute_bits + 1))
        # E(-x_j), hoisted across all records.
        neg_x = self.neg_batch(list(enc_x))

        def mask(records):
            # E(y_ij - x_j) for every record and attribute of the chunk.
            diff_rows = [self.pk.add_batch(list(enc_y[:width]), neg_x)
                         for enc_y in records]
            # Step 1: one fresh mask per difference; the payload is rows of
            # ciphertexts only — no width or count travels in the clear.
            masks, enc_masks = zip(*self.take_masks(
                len(records) * width, kind, bits=bits))
            masked = self.pk.add_batch(
                [diff for row in diff_rows for diff in row], enc_masks)
            starts = range(0, len(masked), width)
            return ([masked[start:start + width] for start in starts],
                    (diff_rows, [masks[start:start + width]
                                 for start in starts]))

        def strip(records, state, totals):
            # Step 3: strip 2*r*d and r^2 from every record's
            # E(sum (d + r)^2) — one multi-exponentiation per record for
            # the cross terms, short for a short mask (N - 2r = 2s mod N).
            self.require_cipher_list(totals, len(records),
                                     "masked-square-sum reply")
            diff_rows, mask_rows = state
            cross = self.pk.weighted_sum_batch(
                diff_rows, [[n - 2 * r for r in row] for row in mask_rows])
            return [
                self.add_plain(total, -sum(r * r for r in row))
                for total, row in zip(self.pk.add_batch(totals, cross),
                                      mask_rows)
            ]

        # Step 2 (P2 decrypts, squares and sums in the clear) runs between
        # the two, once per chunk of records.
        return self.run_pipelined(
            enc_y_list, "SSED.masked_differences", "SSED.masked_square_sums",
            mask, strip)

    def _p2_sum_masked_squares(self) -> None:
        """Step 2: decrypt each record's masked differences, return E(sum h^2).

        The batch arrives from outside this process on a C2 daemon, so its
        shape is checked before anything is decrypted.
        """
        n = self.pk.n
        rows = self.p2.receive(expected_tag="SSED.masked_differences")
        width = self.require_cipher_rows(rows, "masked-difference batch")
        residues = self.p2.decrypt_residue_batch(
            [cipher for row in rows for cipher in row])
        sums = [sum(h * h for h in residues[start:start + width]) % n
                for start in range(0, len(residues), width)]
        self.p2.send(self.p2.encrypt_batch(sums),
                     tag="SSED.masked_square_sums")
