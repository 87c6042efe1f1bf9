"""SkNN_b — the basic (efficient but leaky) protocol, Algorithm 5 of the paper.

Bob sends his attribute-wise encrypted query to C1.  C1 computes the encrypted
squared distance to every record with SSED, then forwards *all* encrypted
distances to C2.  C2 — who holds the secret key — decrypts the distances,
picks the indices of the ``k`` smallest, and returns that index list to C1.
C1 masks the corresponding encrypted records and the usual two-share delivery
gives the plaintext records to Bob.

Per query C2 decrypts ``ceil(c*m / s)`` packed masked differences per scan
half of ``c`` records (``s = (K-1) // (a + 2 + sigma)`` slots, see
:mod:`repro.protocols.ssed`) and ``ceil(n / t)`` packed distances: C1 folds
the ``n`` exact ``l``-bit distances ``t = (K-1) // l`` at a time into one
plaintext (:meth:`~repro.crypto.paillier.PaillierPublicKey.pack`, ``n -
ceil(n / t)`` Horner shifts), the record index being the slot's position.
The packs reveal the ``n`` distances and nothing more.

Security characteristics (Section 4.3): the query and the record contents stay
hidden, but

* C2 learns every plaintext distance ``d_i``, and
* both clouds learn *which* records are the k nearest neighbors (the data
  access pattern).

A query outside the schema's ranges could make a distance wider than ``l``
bits and carry into its neighbour's slot — a wrong answer; every Bob path
refuses such queries before encrypting.

The paper accepts this leakage for applications where it is tolerable; the
fully secure variant is :class:`~repro.core.sknn_secure.SkNNSecure`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.roles import ResultShares
from repro.core.sknn_base import SkNNProtocol, top_k
from repro.crypto.paillier import Ciphertext, slots
from repro.db.schema import Schema
from repro.protocols.ssed import difference_width
from repro.telemetry import profiling as _profiling

__all__ = ["SkNNBasic", "distance_width", "packing_slots"]


class SkNNBasic(SkNNProtocol):
    """The basic secure kNN protocol (Algorithm 5)."""

    name = "SkNNb"

    P2_STEPS = dict(SkNNProtocol.P2_STEPS,
                    **{"SkNNb.encrypted_distances": "_p2_select_top_k"})

    def run(self, encrypted_query: Sequence[Ciphertext], k: int) -> ResultShares:
        """Answer a kNN query, revealing distances to C2 and access patterns.

        Args:
            encrypted_query: Bob's attribute-wise encrypted query ``Epk(Q)``.
            k: number of nearest neighbors requested.

        Returns:
            The two result shares for Bob (masks from C1, masked plaintext
            attribute values decrypted by C2).
        """
        self._validate_query(encrypted_query, k)
        c1 = self.cloud.c1

        # Step 2: C1 and C2 jointly compute E(d_i) for every record.
        encrypted_distances = self._compute_encrypted_distances(encrypted_query)

        with _profiling.cost_scope("select"):
            # Step 2(c): C1 sends the n distances to C2, packed; a slot's
            # position is its record's index.
            width = distance_width(
                self.public_key.key_size,
                self.encrypted_table.schema.distance_bit_length(
                    len(encrypted_query)))
            c1.send([k, width, len(encrypted_distances),
                     self.public_key.pack(encrypted_distances, width)],
                    tag="SkNNb.encrypted_distances")

            # Step 3: C2 decrypts all distances, returns the top-k index list.
            self.p2_step("SkNNb.encrypted_distances")

            # Step 4: C1 selects the encrypted records named by the index
            # list — k distinct positions of the table, checked first.
            delta = c1.receive(expected_tag="SkNNb.topk_indices")
            n = len(self.encrypted_table)
            self.require(
                isinstance(delta, list) and len(delta) == k
                and all(isinstance(index, int) and 0 <= index < n
                        for index in delta)
                and len(set(delta)) == k,
                "malformed top-k index list")
            selected_records = [
                list(self.encrypted_table.record_at(index).ciphertexts)
                for index in delta
            ]

        # Steps 4-6: mask, decrypt, and hand both shares to Bob.
        return self._deliver_records(selected_records)

    # -- C2 step ---------------------------------------------------------------
    def _p2_select_top_k(self) -> None:
        """Step 3: C2 decrypts the packed distances (one vectorized CRT
        kernel call), unpacks them and returns the top-k index list.

        C2's one selection entry for every SkNN_b placement, so
        :meth:`require_packs` checks the frame ``[k, w, count, packs]``
        before anything is decrypted, with ``1 <= k <= count``.
        """
        c2 = self.cloud.c2
        pk = c2.public_key
        k, width, count, packs = self.require_packs(
            c2.receive(expected_tag="SkNNb.encrypted_distances"), pk,
            "encrypted-distance list",
            lambda k, count: type(k) is int and 1 <= k <= count)
        distances = pk.unpack(c2.decrypt_residue_batch(packs), width, count)
        winners = top_k(((distance, index)
                         for index, distance in enumerate(distances)), k)
        c2.send([index for _, index in winners], tag="SkNNb.topk_indices")


def distance_width(key_size: int, distance_bits: int) -> int:
    """The slot width of SkNN_b's packed distances: ``l``, or ``K - 1``
    (one distance per plaintext) when ``l`` is wider."""
    return min(distance_bits, key_size - 1)


def packing_slots(key_size: int, schema: Schema) -> tuple[int, int]:
    """How many masked differences and how many distances one plaintext
    packs in a scan of ``schema``'s table at this key — the cost model's
    ``ssed_slots`` and ``distance_slots``."""
    return (slots(key_size, difference_width(
                key_size, schema.attribute_bit_length())),
            slots(key_size, distance_width(
                key_size, schema.distance_bit_length())))
