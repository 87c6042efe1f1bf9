"""SkNN_b — the basic (efficient but leaky) protocol, Algorithm 5 of the paper.

Bob sends his attribute-wise encrypted query to C1.  C1 computes the encrypted
squared distance to every record with SSED, then forwards *all* encrypted
distances (paired with their record indices) to C2.  C2 — who holds the secret
key — decrypts the distances, picks the indices of the ``k`` smallest, and
returns that index list to C1.  C1 masks the corresponding encrypted records
and the usual two-share delivery gives the plaintext records to Bob.

Security characteristics (Section 4.3): the query and the record contents stay
hidden, but

* C2 learns every plaintext distance ``d_i``, and
* both clouds learn *which* records are the k nearest neighbors (the data
  access pattern).

The paper accepts this leakage for applications where it is tolerable; the
fully secure variant is :class:`~repro.core.sknn_secure.SkNNSecure`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.roles import ResultShares
from repro.core.sknn_base import SkNNProtocol, top_k
from repro.crypto.paillier import Ciphertext
from repro.exceptions import ProtocolError
from repro.telemetry import profiling as _profiling

__all__ = ["SkNNBasic"]


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
            # Step 2(c): C1 sends the (index, E(d_i), k) triple list to C2.
            indexed = list(enumerate(encrypted_distances))
            c1.send([k, indexed], tag="SkNNb.encrypted_distances")

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
        """Step 3: C2 decrypts all distances (one vectorized CRT kernel call)
        and returns the top-k index list.

        C2's one selection entry for every SkNN_b placement, so the frame is
        shape-checked before anything is decrypted: ``[k, rows]`` with rows
        of ``(index, ciphertext under this key)`` pairs, distinct indices
        and ``1 <= k <= len(rows)``.
        """
        c2 = self.cloud.c2
        frame = c2.receive(expected_tag="SkNNb.encrypted_distances")
        k, received = (frame if isinstance(frame, list) and len(frame) == 2
                       else (None, None))
        if not (isinstance(k, int) and isinstance(received, list)
                and 1 <= k <= len(received)
                and all(isinstance(row, (tuple, list)) and len(row) == 2
                        and isinstance(row[0], int)
                        and isinstance(row[1], Ciphertext)
                        and row[1].public_key == c2.public_key
                        for row in received)
                and len({index for index, _ in received}) == len(received)):
            raise ProtocolError(
                f"{self.name}: malformed encrypted-distance list")
        residues = c2.decrypt_residue_batch(
            [ciphertext for _, ciphertext in received])
        winners = top_k(
            ((residue, index)
             for (index, _), residue in zip(received, residues)), k)
        c2.send([index for _, index in winners], tag="SkNNb.topk_indices")
