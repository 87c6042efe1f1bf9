"""SkNN_m — the fully secure protocol, Algorithm 6 of the paper.

The protocol hides the data, the query *and* the data access patterns from
both clouds.  After the common SSED phase it proceeds in ``k`` iterations; in
iteration ``s`` the clouds jointly and obliviously extract the encrypted
record with the ``s``-th smallest distance:

1. **SBD** — the encrypted distance of every record is bit-decomposed once up
   front, because the minimum-selection works on encrypted bit vectors.
2. **SMIN_n** — C1 and C2 compute ``[d_min]``, the encrypted bit vector of the
   current global minimum distance.  Neither cloud learns which record attains
   it.
3. **Oblivious localisation** — C1 recomposes ``E(d_min)`` and ``E(d_i)`` from
   the bit vectors, forms ``E(r_i * (d_min - d_i))`` with fresh random
   ``r_i``, permutes the vector and sends it to C2.  C2 decrypts: exactly the
   position(s) holding the minimum decrypt to zero, every other entry is
   uniformly random.  C2 returns an encrypted indicator vector ``U`` (a one at
   the zero position, zeros elsewhere); C1 undoes the permutation to get
   ``V``.  Because ``V`` is encrypted, C1 still does not know which record was
   selected.
4. **Oblivious extraction** — ``E(t'_{s,j}) = prod_i SM(V_i, E(t_{i,j}))``:
   the selected record is copied out under encryption.
5. **Oblivious elimination** — every bit of the selected record's distance is
   OR-ed (via SBOR) with the indicator ``V_i``, which sets the chosen
   record's distance to the all-ones maximum ``2**l - 1`` so it can never be
   selected again; all other distances are unchanged.

After ``k`` iterations C1 holds the ``k`` encrypted nearest records and the
usual two-share delivery sends them to Bob.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.cloud import FederatedCloud
from repro.core.roles import ResultShares
from repro.core.sknn_base import SkNNProtocol
from repro.crypto.paillier import Ciphertext
from repro.exceptions import ProtocolError
from repro.protocols.encoding import recompose_from_encrypted_bits
from repro.protocols.sbd import SecureBitDecomposition
from repro.protocols.sbor import SecureBitOr
from repro.protocols.sm import SecureMultiplication
from repro.protocols.sminn import SecureMinimumOfN
from repro.telemetry import profiling as _profiling

__all__ = ["SkNNSecure"]


class SkNNSecure(SkNNProtocol):
    """The fully secure (maximally secure) kNN protocol SkNN_m (Algorithm 6)."""

    name = "SkNNm"

    P2_STEPS = dict(SkNNProtocol.P2_STEPS,
                    **{"SkNNm.randomized_differences": "_p2_locate_minimum"})

    def __init__(self, cloud: FederatedCloud, distance_bits: int,
                 sminn_topology: str = "tournament",
                 reexpand_each_iteration: bool = True,
                 feature_dimensions: int | None = None) -> None:
        """Create an SkNN_m instance.

        Args:
            cloud: the federated cloud hosting ``Epk(T)``.
            distance_bits: the domain parameter ``l`` — every squared distance
                must lie in ``[0, 2**l)``.  Derive it from the schema with
                :meth:`repro.db.schema.Schema.distance_bit_length`.
            sminn_topology: ``"tournament"`` (the paper's binary tree) or
                ``"chain"`` (ablation).
            reexpand_each_iteration: when ``True`` (the paper's Algorithm 6,
                step 3(b)) C1 re-derives ``E(d_i)`` from the encrypted bit
                vectors ``[d_i]`` in every iteration after the first, because
                the SBOR update only modifies the bit vectors.  ``False``
                skips the re-expansion and is kept for the ablation benchmark
                that demonstrates why the paper includes it: with stale
                ``E(d_i)`` an already-selected record whose distance ties the
                next minimum can be extracted twice.
        """
        super().__init__(cloud, feature_dimensions=feature_dimensions)
        if distance_bits <= 0:
            raise ProtocolError("distance_bits must be positive")
        self.distance_bits = distance_bits
        self.reexpand_each_iteration = reexpand_each_iteration
        setting = cloud.setting
        self._sbd = SecureBitDecomposition(setting, distance_bits)
        self._sminn = SecureMinimumOfN(setting, topology=sminn_topology)
        self._sm = SecureMultiplication(setting)
        self._sbor = SecureBitOr(setting)

    # -- protocol ------------------------------------------------------------------
    def run(self, encrypted_query: Sequence[Ciphertext], k: int) -> ResultShares:
        """Answer a kNN query without revealing distances or access patterns.

        Args:
            encrypted_query: Bob's attribute-wise encrypted query ``Epk(Q)``.
            k: number of nearest neighbors requested.

        Returns:
            The two result shares for Bob.
        """
        self._validate_query(encrypted_query, k)
        c1 = self.cloud.c1
        n = len(self.encrypted_table)

        # Step 2: E(d_i) via one batched SSED scan, then [d_i] via one batched
        # SBD pass over every record's distance.
        encrypted_distances = self._compute_encrypted_distances(encrypted_query)
        with _profiling.cost_scope("decompose"):
            distance_bits = self._sbd.run_batch(encrypted_distances)

        encrypted_results: list[list[Ciphertext]] = []
        for iteration in range(k):
            with _profiling.cost_scope("select"):
                # Step 3(a): [d_min] of the current (possibly updated)
                # distances.
                min_bits = self._sminn.run(distance_bits)

                # Step 3(b): C1 recomposes E(d_min) and, after the first
                # iteration, re-derives every E(d_i) from its bit vector.
                enc_dmin = recompose_from_encrypted_bits(min_bits)
                if iteration > 0 and self.reexpand_each_iteration:
                    encrypted_distances = [
                        recompose_from_encrypted_bits(bits)
                        for bits in distance_bits
                    ]

                # tau_i = E(r_i * (d_min - d_i)), permuted before leaving C1.
                pk = self.public_key
                differences = pk.add_batch(
                    [enc_dmin] * n,
                    pk.scalar_mul_batch(encrypted_distances, -1))
                randomized = pk.scalar_mul_batch(
                    differences, [c1.random_nonzero() for _ in range(n)])
                permutation = list(range(n))
                c1.rng.shuffle(permutation)
                beta = [randomized[j] for j in permutation]
                c1.send(beta, tag="SkNNm.randomized_differences")

                # Step 3(c): C2 marks the zero entry with an encrypted 1.
                self.p2_step("SkNNm.randomized_differences")

                # Step 3(d): C1 un-permutes U into V.
                received_u = c1.receive(expected_tag="SkNNm.indicator")
                indicator_v: list[Ciphertext | None] = [None] * n
                for position, original_index in enumerate(permutation):
                    indicator_v[original_index] = received_u[position]
            with _profiling.cost_scope("extract"):
                extracted = self._extract_record(indicator_v)
            encrypted_results.append(extracted)

            # Step 3(e): obliviously set the chosen record's distance to max.
            if iteration < k - 1:
                with _profiling.cost_scope("eliminate"):
                    distance_bits = self._eliminate_selected(
                        indicator_v, distance_bits)

        # Steps 4-6 of Algorithm 5: deliver the k encrypted records to Bob.
        return self._deliver_records(encrypted_results)

    # -- helpers ---------------------------------------------------------------------
    def _p2_locate_minimum(self) -> None:
        """Step 3(c): C2 decrypts the permuted differences and replies with
        the encrypted indicator vector marking (one) minimum position."""
        c2 = self.cloud.c2
        received_beta = c2.receive(expected_tag="SkNNm.randomized_differences")
        decrypted = c2.decrypt_residue_batch(received_beta)
        indicator = self._build_indicator(decrypted)
        c2.send(indicator, tag="SkNNm.indicator")

    def _build_indicator(self, decrypted_differences: list[int]) -> list[Ciphertext]:
        """C2's step 3(c): encrypt a 1 at (one) zero position, 0 elsewhere.

        If several entries are zero (equal minimal distances) C2 picks one at
        random, exactly as the paper prescribes, so that exactly one record is
        extracted per iteration.
        """
        c2 = self.cloud.c2
        zero_positions = [idx for idx, value in enumerate(decrypted_differences)
                          if value == 0]
        if not zero_positions:
            raise ProtocolError(
                "SkNNm: no zero entry found while locating the minimum — "
                "the distance domain l is likely too small for the data"
            )
        chosen = c2.rng.choice(zero_positions)
        bits = [1 if idx == chosen else 0
                for idx in range(len(decrypted_differences))]
        # The indicator is C2's secret, so C2 encrypts it (its own pool).
        return c2.encrypt_batch(bits)

    def _extract_record(self, indicator: Sequence[Ciphertext]) -> list[Ciphertext]:
        """Step 3(d): ``E(t'_{s,j}) = prod_i SM(V_i, E(t_{i,j}))``.

        All ``n * m`` products of one iteration run through a single batched
        SM round; the per-attribute accumulation is unchanged.
        """
        table = self.encrypted_table
        dimensions = table.dimensions
        pairs = [
            (enc_indicator, record.ciphertexts[j])
            for enc_indicator, record in zip(indicator, table)
            for j in range(dimensions)
        ]
        products = self._sm.run_batch(pairs)
        accumulators: list[Ciphertext | None] = [None] * dimensions
        for index, product in enumerate(products):
            j = index % dimensions
            accumulators[j] = product if accumulators[j] is None \
                else accumulators[j] + product
        return [cipher for cipher in accumulators if cipher is not None]

    def _eliminate_selected(
        self, indicator: Sequence[Ciphertext],
        distance_bits: list[list[Ciphertext]],
    ) -> list[list[Ciphertext]]:
        """Step 3(e): OR every distance bit with the record's indicator bit.

        For the selected record (indicator 1) this sets all bits to 1, i.e.
        the maximum distance ``2**l - 1``; other records are unchanged.  All
        ``n * l`` ORs of an iteration form one batched SBOR round.
        """
        pairs = [
            (enc_indicator, bit)
            for enc_indicator, bits in zip(indicator, distance_bits)
            for bit in bits
        ]
        ored = self._sbor.run_batch(pairs)
        updated: list[list[Ciphertext]] = []
        position = 0
        for bits in distance_bits:
            updated.append(ored[position:position + len(bits)])
            position += len(bits)
        return updated
