"""SkNN_m — the fully secure protocol, Algorithm 6 of the paper.

The protocol hides the data, the query *and* the data access patterns from
both clouds.  After the common SSED phase it proceeds in ``k`` iterations; in
iteration ``s`` the clouds jointly and obliviously extract the encrypted
record with the ``s``-th smallest distance:

1. **SMIN_n** — C1 and C2 compute ``E(d_min)``, the encryption of the
   current global minimum distance, by a tournament of integer comparisons
   over the ``E(d_i)`` the scan produced.  Neither cloud learns which record
   attains it.
2. **Oblivious localisation** — C1 forms ``E(r_i * (d_min - d_i))`` with
   fresh random ``r_i``, each times a fresh ``E(0)``, permutes the vector
   and sends it to C2.  C2 decrypts: exactly the position(s) holding the
   minimum decrypt to zero, every other entry is uniformly random.  C2
   returns an encrypted indicator vector ``U`` (a one at the zero position,
   zeros elsewhere); C1 undoes the permutation to get ``V``.  Because ``V``
   is encrypted, C1 still does not know which record was selected.
3. **Oblivious extraction** — in the same round: next to the differences C1
   sends every record ``E(t_{i,a} + r_{i,a})`` under fresh masks, in the
   same permuted order, and C2 forwards the row at the position it chose,
   each ciphertext times a fresh ``E(0)``, with ``U``.  C1 strips the mask
   obliviously, ``E(t'_{s,a}) = row'_a * prod_i V_i^{N - r_{i,a}}``.  The
   masks are short, ``r_{i,a} = N - s_{i,a}`` with ``s_{i,a}`` of ``a +
   sigma`` bits for the schema's ``a``-bit values, so the strip exponents
   ``N - r_{i,a} = s_{i,a}`` are too; C2 decrypts no row, and one it did
   decrypt would be hidden to ``2**-sigma``.
4. **Oblivious elimination** — C1 keeps one encrypted flag bit per record,
   ``E(f_i) <- E(f_i) * E(V_i)`` (a homomorphic addition, no interaction),
   and every later iteration compares ``d_i + 2**l * f_i`` over ``l + 1``
   bits, which puts every selected record above every live one.

Where this departs from the printed algorithm:

* The printed algorithm bit-decomposes every distance (SBD) so that SMIN
  can compare bit vectors, and recomposes ``E(d_min)`` from the minimum's
  bits.  SMIN here compares the encrypted integers, so neither runs: SMIN_n
  returns ``E(d_min)`` itself.
* The printed ``tau_i = E(d_min - d_i)^(r_i)`` has the randomness
  ``(rho(d_min) / rho(d_i))^(r_i)``, and C2 — which holds ``p, q`` and so
  reads the randomness of what it decrypts — could test guesses of
  ``d_min - d_i`` against it; every ``tau_i`` carries a fresh ``E(0)``.
* The printed step 3(d) extracts by ``prod_i SM(V_i, E(t_{i,a}))``: ``n * m``
  secure multiplications and a round per iteration.  C2 already knows
  which position it marked, so it can forward that record itself; the masks
  keep the record from C2 (it decrypts none of the rows) and the fresh
  ``E(0)`` keeps C1 from matching the forwarded row to one it sent.
* The printed step 3(e) OR-s (SBOR) ``V_i`` into all ``l`` distance bits,
  setting the selected record to the all-ones ``2**l - 1`` — ``n * l``
  secure multiplications and a round per iteration, and a silent wrong
  answer besides: ``2**l - 1`` is a distance a live record can have, so a
  selected record ties it and can be selected again.  The flag bit costs
  additions, and nothing live can reach ``2**l``.

After ``k`` iterations C1 holds the ``k`` encrypted nearest records and the
usual two-share delivery sends them to Bob.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.cloud import FederatedCloud
from repro.core.roles import ResultShares
from repro.core.sknn_base import SkNNProtocol
from repro.crypto.paillier import Ciphertext
from repro.crypto.precompute import MASK_SHORT, STATISTICAL_SECURITY
from repro.db.schema import Schema
from repro.exceptions import (ConfigurationError, ProtocolError, QueryError,
                               SchemaError)
from repro.protocols.smin import SecureMinimum
from repro.protocols.sminn import SecureMinimumOfN
from repro.telemetry import profiling as _profiling

__all__ = ["SkNNSecure", "check_query_domain"]


def check_query_domain(schema: Schema, query: Sequence[int]) -> None:
    """Refuse a plaintext query outside ``schema``'s value ranges.

    SkNN_m sizes ``l`` from the schema and compares squared distances as
    ``l``-bit integers; a query attribute beyond its range can put a
    distance at ``2**l`` or above, where the comparison is wrong and a wrong
    neighbour comes back with no error.  Both protocols' SSED masks the
    query's differences for the schema's attribute width, so a wider one
    would be hidden less from C2 (Bob's own query only).  Only Bob holds
    the plaintext query, so it is checked on Bob's side, before it is
    encrypted, in every mode.

    Raises:
        QueryError: the query has the wrong arity or a value out of range.
    """
    try:
        schema.validate_record(query)
    except SchemaError as error:
        raise QueryError(f"query outside the schema: {error}") from error


class SkNNSecure(SkNNProtocol):
    """The fully secure (maximally secure) kNN protocol SkNN_m (Algorithm 6)."""

    name = "SkNNm"

    P2_STEPS = dict(SkNNProtocol.P2_STEPS,
                    **{"SkNNm.randomized_differences": "_p2_locate_minimum"})

    def __init__(self, cloud: FederatedCloud, distance_bits: int,
                 feature_dimensions: int | None = None) -> None:
        """Create an SkNN_m instance.

        Args:
            cloud: the federated cloud hosting ``Epk(T)``.
            distance_bits: the domain parameter ``l`` — every squared distance
                must lie in ``[0, 2**l)``.  Derive it from the schema with
                :meth:`repro.db.schema.Schema.distance_bit_length`.
        """
        super().__init__(cloud, feature_dimensions=feature_dimensions)
        if distance_bits <= 0:
            raise ProtocolError("distance_bits must be positive")
        key_size = cloud.setting.public_key.key_size
        if not SecureMinimum.domain_fits(distance_bits + 1, key_size):
            raise ConfigurationError(
                f"distance_bits={distance_bits} is too wide for a {key_size}-"
                f"bit key: SMIN compares l + 1 = {distance_bits + 1} bits, "
                f"which needs 2^(l+2+{STATISTICAL_SECURITY}) <= N")
        self.distance_bits = distance_bits
        setting = cloud.setting
        self._sminn = SecureMinimumOfN(setting)

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
        # SMIN compares l-bit integers: a larger distance would be compared
        # wrongly and select a wrong minimum without a trace.
        required = self.encrypted_table.schema.distance_bit_length(
            self.feature_dimensions)
        self.require(required <= self.distance_bits,
                     f"distance_bits={self.distance_bits} cannot hold the "
                     f"squared distances of this schema, which need "
                     f"{required} bits")

        # Step 2: E(d_i) via one batched SSED scan.
        encrypted_distances = self._compute_encrypted_distances(encrypted_query)

        pk = self.public_key
        flag_weight = 1 << self.distance_bits
        flags: list[Ciphertext] = []
        encrypted_results: list[list[Ciphertext]] = []
        for iteration in range(k):
            with _profiling.cost_scope("select"):
                # Step 3(a): E(d_min) of the live records — after the first
                # iteration over E(d_i + 2^l f_i), one short power per
                # record, so selected ones lose.
                current_distances = (
                    pk.add_batch(encrypted_distances,
                                 pk.scalar_mul_batch(flags, flag_weight))
                    if flags else encrypted_distances)
                enc_dmin = self._sminn.run(
                    current_distances,
                    self.distance_bits + 1 if flags else self.distance_bits)

                # tau_i = E(r_i * (d_min - d_i)) * E(0), permuted before
                # leaving C1.
                differences = pk.add_batch(
                    [enc_dmin] * n,
                    pk.scalar_mul_batch(current_distances, -1))
                randomized = pk.add_batch(
                    pk.scalar_mul_batch(
                        differences,
                        [c1.random_nonzero() for _ in range(n)]),
                    c1.encrypt_batch([0] * n))
                permutation = list(range(n))
                c1.rng.shuffle(permutation)
                beta = [randomized[j] for j in permutation]
            with _profiling.cost_scope("extract"):
                # Step 3(d), C1's half: every record under fresh masks, in
                # beta's order.
                masks, rows = self._masked_records(permutation)
            with _profiling.cost_scope("select"):
                c1.send([beta, rows], tag="SkNNm.randomized_differences")

                # Step 3(c): C2 marks the zero entry with an encrypted 1 and
                # forwards the masked record at that position.
                self.p2_step("SkNNm.randomized_differences")

                # C1 un-permutes U into V.
                reply = c1.receive(expected_tag="SkNNm.indicator")
                self.require(isinstance(reply, list) and len(reply) == 2,
                             "malformed indicator reply")
                received_u, received_row = reply
                self.require_cipher_list(received_u, n, "indicator reply")
                self.require_cipher_list(received_row, len(rows[0]),
                                         "indicator reply")
                indicator_v: list[Ciphertext | None] = [None] * n
                for position, original_index in enumerate(permutation):
                    indicator_v[original_index] = received_u[position]
            with _profiling.cost_scope("extract"):
                # Step 3(d), C1's strip: E(t'_a) = row'_a * prod_i
                # V_i^(N - r_{i,a}), one multi-exponentiation per attribute
                # with the masks' short exponents.
                encrypted_results.append(pk.add_batch(
                    received_row,
                    pk.weighted_sum_batch(
                        [indicator_v] * len(received_row),
                        [[pk.n - record_masks[a] for record_masks in masks]
                         for a in range(len(received_row))])))

            # Step 3(e): the selected record's flag bit becomes 1.
            if iteration < k - 1:
                with _profiling.cost_scope("eliminate"):
                    flags = (pk.add_batch(flags, indicator_v) if flags
                             else list(indicator_v))

        # Steps 4-6 of Algorithm 5: deliver the k encrypted records to Bob.
        return self._deliver_records(encrypted_results)

    # -- helpers ---------------------------------------------------------------------
    def _masked_records(self, permutation: Sequence[int]
                        ) -> tuple[list[list[int]], list[list[Ciphertext]]]:
        """C1's records under fresh masks for step 3(d).

        Returns the masks ``r_{i,a}`` by record and the rows ``E(t_{i,a} +
        r_{i,a})`` in ``permutation``'s order; the masks are one
        :meth:`~repro.protocols.base.TwoPartyProtocol.take_masks` batch,
        short for the schema's attribute width.
        """
        table = self.encrypted_table
        dimensions = table.dimensions
        tuples = self._ssed.take_masks(
            len(table) * dimensions, MASK_SHORT,
            bits=table.schema.attribute_bit_length())
        per_record = [tuples[index * dimensions:(index + 1) * dimensions]
                      for index in range(len(table))]
        rows = [self.public_key.add_batch(
                    list(table.record_at(index).ciphertexts),
                    [c for _, c in per_record[index]])
                for index in permutation]
        return [[r for r, _ in record] for record in per_record], rows

    def _p2_locate_minimum(self) -> None:
        """Step 3(c): C2 decrypts the permuted differences, replies with the
        encrypted indicator vector marking (one) minimum position, and
        forwards the masked record at that position.

        The frame is ``[beta, rows]`` — ``n`` ciphertexts and ``n`` rows of
        ``m`` — and is checked before anything is decrypted.  C2 knows
        neither ``n`` nor ``m`` in advance, so the check is of types and
        consistency: rows of one width, and one ``beta`` entry per row.  C2
        decrypts no row: it multiplies each ciphertext of the chosen one by a
        fresh ``E(0)``.  The indicator is C2's secret, so C2 encrypts it (its
        own pool), in one batch with those zeros.
        """
        c2 = self.cloud.c2
        frame = c2.receive(expected_tag="SkNNm.randomized_differences")
        self.require(isinstance(frame, list) and len(frame) == 2
                     and isinstance(frame[0], list),
                     "malformed randomized-difference batch")
        beta, rows = frame
        width = self.require_cipher_rows(rows, "randomized-difference batch")
        self.require_cipher_list(beta, len(rows),
                                 "randomized-difference batch")
        chosen = self._build_indicator(c2.decrypt_residue_batch(beta))
        fresh = c2.encrypt_batch(
            [int(index == chosen) for index in range(len(beta))]
            + [0] * width)
        c2.send([fresh[:len(beta)],
                 self.public_key.add_batch(rows[chosen], fresh[len(beta):])],
                tag="SkNNm.indicator")

    def _build_indicator(self, decrypted_differences: list[int]) -> int:
        """C2's step 3(c): the position of (one) zero difference.

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
        return c2.rng.choice(zero_positions)
