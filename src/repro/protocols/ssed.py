"""Secure Squared Euclidean Distance (SSED) protocol — Algorithm 2.

P1 holds two attribute-wise encrypted vectors ``Epk(X)`` and ``Epk(Y)``; with
the help of P2 (who holds the secret key) it computes ``Epk(|X - Y|^2)``
without either party learning ``X`` or ``Y``.

The paper evaluates

    |X - Y|^2 = sum_j (x_j - y_j)^2

with one Secure Multiplication per attribute.  P1 never uses the individual
squares, only their sum, so this implementation runs the ``m`` squarings of a
record as **one fused round** with the masking identity SM is built on
(Equation 1 of the paper, specialized to ``a == b``)::

    d^2 = (s - d)^2 + 2*s*d - s^2

and sends the masked differences ``v = s - d`` **packed**, many per Paillier
plaintext [Bianchi, Piva & Barni, IEEE TIFS 2010; Erkin et al., PETS 2009]:

1. P1 computes ``E(d_j) = E(y_j) * E(-x_j)`` locally and draws one mask
   ``s_j`` per difference.  Given the attributes' width ``a``, ``|d_j| <
   2**a`` and ``s_j`` is uniform in ``[2**a, 2**a + 2**(a+1+sigma))``
   (:data:`~repro.protocols.base.MASK_SLOT`), so ``v_j = s_j - d_j`` is
   in ``(0, 2**w)`` with ``w = a + 2 + sigma`` (:func:`difference_width`).
   It folds ``slots = (K-1) // w`` differences at a time into one ``E(D)``
   by Horner's rule (:meth:`~repro.crypto.paillier.PaillierPublicKey.
   pack`, across record boundaries) and sends ``E(D - M)`` — one fresh
   encryption of the packed masks ``-M`` per pack — with ``m``, ``w`` and
   the value count in the clear.
2. P2 checks the frame, decrypts each pack, reads ``M - D`` (the residue's
   negation: every slot is one ``v_j``, with no carry or borrow between
   slots), unpacks the slots, computes ``H = sum_j v_j^2 mod N`` per
   record in the clear and returns one ciphertext ``E(H)`` per record.
3. P1 strips the cross terms:
   ``E(|X - Y|^2) = E(H) * prod_j E(d_j)^(2*s_j) * E(-sum_j s_j^2)``.
   The product is **one multi-exponentiation per record**
   (:meth:`~repro.crypto.paillier.PaillierPublicKey.weighted_sum_batch`)
   with the short exponents ``2*s_j`` (``a + 2 + sigma`` bits, not ``K``),
   still counted as ``m`` exponentiations.

Each pipelined half (:func:`~repro.protocols.base.pipeline_chunks`, still
by records) is packed on its own: ``p = ceil(c*m / slots)`` packs for a
half of ``c`` records.  Per half P1 pays ``p`` encryptions, ``c*m - p``
Horner shifts and ``c*m`` strip exponentiations, P2 ``p`` decryptions and
``c`` encryptions (plus the query negation, hoisted across records); ``p``
ciphertexts go out and ``c`` come back (:func:`scan_packs`, read by
``ssed_scan_cost`` in the analysis layer).  At ``slots == 1`` — no width
given, or a key too small for two slots — that is the unpacked round: one
ciphertext per difference.  The sequence is the same with and without a
precomputation engine: a pool only changes *when* an obfuscator
exponentiation was paid, never which messages are exchanged.

What each party sees
--------------------
* P2 sees each ``v_j = s_j - d_j``: within ``2**-sigma`` (``sigma = 40``)
  of a distribution that does not depend on ``d_j``, the statistical
  hiding of the standard comparison protocols (uniform mod ``N`` without
  a width).  The packed plaintext is the slot values and nothing more.
  A difference wider than the width — only a query outside the schema's
  ranges makes one, and every Bob path refuses those — can carry into a
  neighbouring slot and corrupt its distance: a wrong answer, not only
  weaker hiding.  Summing in the clear adds nothing: ``H`` is a function
  of values P2 already holds.
* P1 sees only ciphertexts (one fresh encryption per record).
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.paillier import Ciphertext, slots
from repro.protocols.base import (MASK_SLOT, MASK_ZN, STATISTICAL_SECURITY,
                                  TwoPartyProtocol, pipeline_chunks,
                                  traced_round)

__all__ = ["SecureSquaredEuclideanDistance", "difference_width",
           "scan_packs"]


def difference_width(key_size: int, attribute_bits: int | None) -> int:
    """``w``, the bits of one packed masked difference at this key.

    ``a + 2 + sigma`` for ``a``-bit attributes; ``K - 1`` — one difference
    per plaintext, masked mod ``N`` — when that is wider or no width is
    known.
    """
    if attribute_bits is None:
        return key_size - 1
    return min(attribute_bits + 2 + STATISTICAL_SECURITY, key_size - 1)


def scan_packs(n_records: int, dimensions: int, slots: int) -> list[int]:
    """The packed ciphertexts of each pipelined chunk of a scan over
    ``n_records`` records: ``ceil(c*m / slots)`` for a chunk of ``c``."""
    return [-(-len(chunk) * dimensions // slots)
            for chunk in pipeline_chunks(range(n_records))]


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
        query and the ``Y_i`` are the ``n`` table records: in two messages
        below :data:`~repro.protocols.base.PIPELINE_MIN_ITEMS` records and
        four — two half-scans in flight — from there on, each half's
        differences packed on their own (see the module docstring for the
        counts).  The shared operand is negated once per attribute instead
        of once per (record, attribute) pair — valid because ``(x - y)^2 ==
        (y - x)^2``.

        Args:
            enc_x: the shared m-dimensional encrypted vector (the query).
            enc_y_list: the encrypted vectors to compute distances against;
                entries longer than ``m`` are truncated to the leading ``m``
                attributes (trailing label columns do not join the distance).
            attribute_bits: ``a`` with every attribute in ``[0, 2**a)``
                (:meth:`~repro.db.schema.Schema.attribute_bit_length`), so
                every difference is ``a + 1``-bit signed.  The masks are
                then short, the differences packed and the strip powers
                short; ``None`` masks uniformly in ``Z_N``, one difference
                per plaintext (full-size strip powers).

        Returns:
            ``Epk(|X - Y_i|^2)`` for every ``Y_i``, in input order.
        """
        self.require(len(enc_x) > 0, "vectors must have at least one attribute")
        dimensions = len(enc_x)
        for enc_y in enc_y_list:
            self.require(len(enc_y) >= dimensions,
                         f"dimension mismatch: {len(enc_y)} vs {dimensions}")
        if not enc_y_list:
            return []
        pk = self.pk
        n = pk.n
        width = difference_width(pk.key_size, attribute_bits)
        per_pack = slots(pk.key_size, width)
        # a + 1-bit signed differences, each s - d inside its slot
        kind, bits = ((MASK_ZN, None) if attribute_bits is None
                      else (MASK_SLOT, attribute_bits + 1))
        # E(-x_j), hoisted across all records.
        neg_x = self.neg_batch(list(enc_x))

        def mask(records):
            # E(y_ij - x_j) for every record and attribute of the chunk.
            diff_rows = [pk.add_batch(list(enc_y[:dimensions]), neg_x)
                         for enc_y in records]
            # Step 1: one mask per difference, packed like the differences
            # (first value lowest); E(D - M) is one fresh encryption of -M
            # per pack, so C2 reads M - D, every slot one s - d.
            masks = self.sample_masks(len(records) * dimensions, kind,
                                      bits=bits)
            packed_masks = [
                sum(s << (width * slot) for slot, s in
                    enumerate(masks[start:start + per_pack]))
                for start in range(0, len(masks), per_pack)]
            packs = pk.add_batch(
                pk.pack([diff for row in diff_rows for diff in row], width),
                self.p1.encrypt_batch([-packed % n for packed in packed_masks]))
            return ([dimensions, width, len(masks), packs],
                    (diff_rows, [masks[start:start + dimensions]
                                 for start in range(0, len(masks),
                                                    dimensions)]))

        def strip(records, state, totals):
            # Step 3: strip 2*s*d and s^2 from every record's
            # E(sum (s - d)^2) — one multi-exponentiation per record with
            # the short exponents 2*s.
            self.require_cipher_list(totals, len(records),
                                     "masked-square-sum reply")
            diff_rows, mask_rows = state
            cross = pk.weighted_sum_batch(
                diff_rows, [[2 * s for s in row] for row in mask_rows])
            return [
                self.add_plain(total, -sum(s * s for s in row))
                for total, row in zip(pk.add_batch(totals, cross), mask_rows)
            ]

        # Step 2 (P2 decrypts, unpacks, squares and sums in the clear) runs
        # between the two, once per chunk of records.
        return self.run_pipelined(
            enc_y_list, "SSED.masked_differences", "SSED.masked_square_sums",
            mask, strip)

    def _p2_sum_masked_squares(self) -> None:
        """Step 2: decrypt each pack, return E(sum v^2) per record.

        The frame ``[m, w, count, packs]`` arrives from outside this
        process on a C2 daemon, so :meth:`require_packs` checks it before
        anything is decrypted, with a count of whole ``m``-attribute
        records.
        """
        pk = self.p2.public_key
        n = pk.n
        dimensions, width, count, packs = self.require_packs(
            self.p2.receive(expected_tag="SSED.masked_differences"), pk,
            "masked-difference batch",
            lambda m, count: type(m) is int and m >= 1 and count % m == 0)
        values = pk.unpack(
            [-residue % n for residue in self.p2.decrypt_residue_batch(packs)],
            width, count)
        sums = [sum(v * v for v in values[start:start + dimensions]) % n
                for start in range(0, count, dimensions)]
        self.p2.send(self.p2.encrypt_batch(sums),
                     tag="SSED.masked_square_sums")
