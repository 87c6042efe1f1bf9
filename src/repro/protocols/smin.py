"""Secure Minimum (SMIN) protocol — Algorithm 3 of the paper.

P1 holds two encrypted bit vectors ``[u]`` and ``[v]`` (most significant bit
first, ``0 <= u, v < 2**l``); P2 holds the secret key.  The protocol outputs
``[min(u, v)]`` to P1 while hiding ``u``, ``v`` *and which of the two is the
minimum* from both parties.

The trick that hides the comparison outcome is that P1 secretly flips a coin
to choose the functionality ``F`` — either "is u > v?" or "is v > u?" — and
runs an oblivious comparison whose one-bit outcome ``alpha`` is learned only
by P2 in terms of the *randomly chosen* F.  Since P2 does not know F, alpha
tells it nothing; since P1 never sees alpha in the clear (only ``Epk(alpha)``)
it also learns nothing.  P1 then combines ``Epk(alpha)`` with the masked
differences ``Gamma_i`` so that the final encrypted bits satisfy::

    F: u > v   ->   min_i = u_i + alpha * (v_i - u_i)
    F: v > u   ->   min_i = v_i + alpha * (u_i - v_i)

Per pair, with ``max`` the potential maximum under F and ``other`` the
other value:

* ``d_i = other_i - max_i`` in ``{-1, 0, 1}``, ``E(d_i) = E(other_i) *
  E(max_i)^-1``;
* ``Gamma_i`` encrypts ``d_i + rhat_i`` (the randomized bit difference);
* the marker ``P_0 = Z`` (the pair's fresh ``E(0)``), ``P_{i+1} = P_i^3 *
  E(d_i)`` encrypts ``sum_{j<=i} d_j 3^(i-j)``, a balanced-ternary number:
  0 while no bit has differed, ``d_t = -1`` or ``+1`` at the first
  difference ``t``, and of absolute value at least 2 after it;
* ``L`` holds ``l`` entries ``1 + r'_i (P_{i+1} + 1)``: the entry at ``t``
  is 1 when ``max_t = 1`` (F true); every other entry is uniform apart
  from the excluded point 1.

P2 decrypts the permuted ``L`` vector: ``alpha = 1`` when an entry decrypts
to 1 — the outcome of F — and 0 otherwise; F false and ``u = v`` look the
same from ``L``, no entry is 1.  It returns ``M'_i = Gamma'_i^alpha``, each
times a fresh ``E(0)``.

Where this departs from the printed algorithm:

* The printed ``W_i = E(max_i (1 - other_i))`` and ``G_i = E(u_i XOR v_i)``
  need the product ``u_i v_i`` — one secure multiplication per bit and a
  round of its own per call.  The marker here needs only ``d_i``: it is the
  weighted zero test of Damgard, Geisler and Kroigaard ["Efficient and
  secure comparison for on-line auctions", ACISP 2007] with weight 3, so
  the sign of ``d_t`` itself says which way F went.  One round per call.
  Their random sign ``s``, which picks the one-sided test to run, is F's
  coin here, so ``L`` carries the one test ``d_t = -1`` (``max_t = 1``):
  one entry per bit.  A second entry ``r''_i (P_{i+1} - 1)`` per bit could
  decrypt to 1 only with probability ``1/N``, so it never set alpha.
* The printed ``M'_i = Gamma'_i^alpha`` is ``1`` for ``alpha = 0`` and the
  very ``Gamma'_i`` P1 sent for ``alpha = 1`` — P1 read alpha off the wire.
  The fresh ``E(0)`` makes every ``M'_i`` a new ciphertext.
* ``Gamma_i`` stays masked by a uniform ``rhat_i`` in ``[1, N)`` although
  P2 only raises it to alpha: P2 holds the secret key, and an unmasked
  ``E(d_i)`` would show it every ``d_i`` — which bits of ``u`` and ``v``
  differ, ``|u - v|`` and every tie.  P1 strips the mask from ``M'_i`` with
  ``E(alpha)^(N - rhat_i)``, one full power per bit.
* A non-zero ``P_{i+1} + 1`` must be a unit for its entry to be uniform:
  the protocol requires ``3^(l+1) < 2^(K/2 - 1)``, below either prime of
  ``N`` (``l <= 38`` at K=128, ``l <= 159`` at K=512).

P1 draws the difference masks ``(rhat_i, E(rhat_i))`` per round, not per
bit: ``pairs * l`` (and ``pairs`` ``Z = E(0)`` constants) for a
:meth:`SecureMinimum.run_batch` level, as one ``take_masks`` batch.

Of the three exponentiations P1 counts per bit in step 1, one is the
negation of ``max_i`` (the chunk's negations share one modular inversion)
and one is the marker's cube, a product of two multiplications; only the
power of ``P_{i+1}`` in the ``L`` entry is a full power, one
``scalar_mul_batch`` per chunk.  The strip in step 3 is P1's other full
power per bit.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.paillier import Ciphertext
from repro.protocols.base import TwoPartyProtocol, traced_round

__all__ = ["SecureMinimum"]


class SecureMinimum(TwoPartyProtocol):
    """Two-party secure minimum of two encrypted bit-decomposed values."""

    name = "SMIN"

    P2_STEPS = {
        "SMIN.batch_gamma_and_l": "_p2_decide_alpha_batch",
    }

    @traced_round("run")
    def run(self, enc_u_bits: Sequence[Ciphertext],
            enc_v_bits: Sequence[Ciphertext]) -> list[Ciphertext]:
        """Compute ``[min(u, v)]`` from ``[u]`` and ``[v]``.

        The one-pair case of :meth:`run_batch`.

        Args:
            enc_u_bits: encrypted bits of ``u`` (MSB first).
            enc_v_bits: encrypted bits of ``v`` (MSB first).

        Returns:
            Encrypted bits of ``min(u, v)`` (MSB first), known only to P1.
        """
        self.require(len(enc_u_bits) == len(enc_v_bits),
                     "bit vectors must have equal length")
        self.require(len(enc_u_bits) > 0, "bit vectors must be non-empty")
        return self.run_batch([(enc_u_bits, enc_v_bits)])[0]

    # -- batched execution -----------------------------------------------------
    @traced_round("run_batch", sized=True)
    def run_batch(
        self, pairs: Sequence[tuple[Sequence[Ciphertext], Sequence[Ciphertext]]]
    ) -> list[list[Ciphertext]]:
        """Compute ``[min(u_i, v_i)]`` for a whole vector of bit-vector pairs.

        The protocol's one implementation (:meth:`run` is the one-pair
        batch; per-pair operation counts do not depend on the batch size),
        executed as one Gamma/L round in which P2 decrypts all permuted L
        vectors with the vectorized CRT kernel.  The round is four messages
        — two half-batches of pairs in flight — once it has
        :data:`~repro.protocols.base.PIPELINE_MIN_ITEMS` pairs, two below
        that.  Each pair keeps its own oblivious-functionality coin and
        permutations so the security argument is unchanged.  SMIN_n's
        tournament rounds call this with all pairs of a level.

        Args:
            pairs: ``(u_bits, v_bits)`` tuples; every bit vector across all
                pairs must share one length (MSB first).

        Returns:
            The encrypted minimum bit vector of each pair, in input order.
        """
        if not pairs:
            return []
        lengths = {len(bits) for pair in pairs for bits in pair}
        self.require(len(lengths) == 1,
                     "all bit vectors in a batch must share one length")
        bit_length = lengths.pop()
        self.require(bit_length > 0, "bit vectors must be non-empty")
        self.require(3 ** (bit_length + 1) < 1 << (self.pk.key_size // 2 - 1),
                     f"{bit_length}-bit values need 3^(l+1) < 2^(K/2-1) "
                     f"for the marker, K={self.pk.key_size}")
        n = self.pk.n

        # ---- P1: every pair's coin F orders it as (max, other) ---------------
        tasks = [(enc_u_bits, enc_v_bits) if self.p1.rng.getrandbits(1)
                 else (enc_v_bits, enc_u_bits)
                 for enc_u_bits, enc_v_bits in pairs]

        def build_gamma_and_l(chunk):
            # ---- P1: step 1 for every pair of the chunk ---------------------
            rhat_tuples = self.take_masks(len(chunk) * bit_length, "nonzero")
            enc_zeros = self.p1.encrypt_batch([0] * len(chunk))
            # E(d_i) = E(other_i - max_i), the chunk's negations sharing one
            # inversion; Gamma_i = E(d_i + rhat_i)
            differences = self.pk.add_batch(
                [bit for _, other_bits in chunk for bit in other_bits],
                self.neg_batch([bit for maximum_bits, _ in chunk
                                for bit in maximum_bits]))
            gammas = self.pk.add_batch(
                differences, [enc_rhat for _, enc_rhat in rhat_tuples])
            markers, exponents = [], []
            permutations = []
            for index in range(len(chunk)):
                bits = slice(index * bit_length, (index + 1) * bit_length)
                # P_{i+1} = P_i^3 * E(d_i) from P_0 = Z: 0 before the first
                # differing bit t, d_t at it, outside {-1, 0, 1} after it
                marker = enc_zeros[index]
                for enc_difference in differences[bits]:
                    marker = marker * 3 + enc_difference
                    markers.append(marker)
                # the pair's draws in one order, however the round is split
                exponents.extend(self.p1.random_nonzero()
                                 for _ in range(bit_length))
                permutation_gamma = list(range(bit_length))
                permutation_l = list(range(bit_length))
                self.p1.rng.shuffle(permutation_gamma)
                self.p1.rng.shuffle(permutation_l)
                permutations.append((permutation_gamma, permutation_l))
            # 1 + r'(P + 1) = r'P + (r' + 1)
            l_vector = [
                self.add_plain(cipher, r + 1) for cipher, r in zip(
                    self.pk.scalar_mul_batch(markers, exponents), exponents)]
            payload, states = [], []
            for index, (permutation_gamma, permutation_l) in enumerate(
                    permutations):
                gamma_vector = gammas[index * bit_length:
                                      (index + 1) * bit_length]
                entries = l_vector[index * bit_length:
                                   (index + 1) * bit_length]
                payload.append([[gamma_vector[j] for j in permutation_gamma],
                                [entries[j] for j in permutation_l]])
                states.append((
                    [rhat for rhat, _ in rhat_tuples[index * bit_length:
                                                     (index + 1) * bit_length]],
                    permutation_gamma))
            return payload, states

        def select_minimums(chunk, states, reply):
            # ---- P1: step 3 for every pair of the chunk ---------------------
            self.require(isinstance(reply, list) and len(reply) == 2,
                         "malformed masked-minimum reply")
            received_m, received_alphas = reply
            self.require(
                self.require_cipher_rows(received_m, "masked-minimum reply",
                                         len(chunk)) == bit_length,
                "malformed masked-minimum reply")
            self.require_cipher_list(received_alphas, len(chunk),
                                     "masked-minimum reply")
            results: list[list[Ciphertext]] = []
            for index, (maximum_bits, _) in enumerate(chunk):
                gamma_masks, permutation_gamma = states[index]
                unpermuted: list[Ciphertext | None] = [None] * bit_length
                for position, original_index in enumerate(permutation_gamma):
                    unpermuted[original_index] = received_m[index][position]
                # lambda_i = M~_i * E(alpha)^{N - rhat_i} = E(alpha * d_i)
                lambdas = self.pk.add_batch(
                    unpermuted,
                    self.pk.scalar_mul_batch(
                        [received_alphas[index]] * bit_length,
                        [n - mask for mask in gamma_masks]),
                )
                results.append(self.pk.add_batch(list(maximum_bits), lambdas))
            return results

        # ---- P2: step 2 runs between the two, once per chunk of pairs -------
        return self.run_pipelined(
            tasks, "SMIN.batch_gamma_and_l", "SMIN.batch_masked_minimums",
            build_gamma_and_l, select_minimums)

    # -- P2 side -------------------------------------------------------------
    def _p2_decide_alpha_batch(self) -> None:
        """Step 2: P2 decrypts each pair's permuted L vector and forms
        ``alpha`` and ``M'``.

        ``alpha = 1`` when some entry of a pair's decrypted L vector equals 1
        (the outcome of P1's secretly chosen functionality F is true),
        otherwise 0.  ``M'_i = Gamma'_i ^ alpha * E(0)`` so that P1 later
        recovers ``alpha * (d_i + rhat_i)`` without learning alpha — the
        fresh ``E(0)`` (one batch with the ``E(alpha)``) keeps ``M'_i`` from
        being ``1`` or the ``Gamma'_i`` P1 sent.  The payload's shape —
        ``[Gamma', L']`` per pair, every ``Gamma'`` and every ``L'`` of one
        bit length ``l`` — is checked first, so the per-pair
        windows of the flat decryption align.
        """
        received_payload = self.p2.receive(expected_tag="SMIN.batch_gamma_and_l")
        self.require(
            isinstance(received_payload, list)
            and all(isinstance(pair, list) and len(pair) == 2
                    for pair in received_payload),
            "malformed gamma-and-L batch")
        bit_length = self.require_cipher_rows(
            [permuted_gamma for permuted_gamma, _ in received_payload],
            "gamma-and-L batch")
        width = self.require_cipher_rows(
            [permuted_l for _, permuted_l in received_payload],
            "gamma-and-L batch")
        self.require(width == bit_length, "malformed gamma-and-L batch")
        decrypted_l = self.p2.decrypt_residue_batch(
            [cipher for _, permuted_l in received_payload
             for cipher in permuted_l])
        alphas = [
            1 if any(value == 1
                     for value in decrypted_l[index * width:
                                              (index + 1) * width]) else 0
            for index in range(len(received_payload))]
        fresh = self.p2.encrypt_batch(
            alphas + [0] * (len(received_payload) * bit_length))
        enc_alphas, enc_zeros = fresh[:len(alphas)], fresh[len(alphas):]
        m_primes = [
            self.pk.add_batch(
                self.pk.scalar_mul_batch(permuted_gamma, alpha),
                enc_zeros[index * bit_length:(index + 1) * bit_length])
            for index, ((permuted_gamma, _), alpha)
            in enumerate(zip(received_payload, alphas))]
        self.p2.send([m_primes, enc_alphas], tag="SMIN.batch_masked_minimums")
