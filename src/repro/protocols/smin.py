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

Vector roles (for one index ``i``, following the paper's notation):

* ``W_i``     encrypts 1 exactly when the bit of the *potential maximum*
  (according to F) is 1 and the other bit is 0;
* ``Gamma_i`` encrypts the randomized bit difference (+ mask ``rhat_i``);
* ``G_i``     encrypts ``u_i XOR v_i``;
* ``Phi_i``   encrypts ``g_i - 1 + 2 * sum_{j<i} g_j`` (plus the pair's fresh
  ``Z = E(0)``, doubled): 0 exactly at the first index where the bits
  differ — there ``g_i = 1`` and no earlier bit differs — and a non-zero
  integer of at most ``2 l + 1`` everywhere else (odd where ``g_i = 0``,
  a positive even number after the first difference);
* ``L_i``     equals ``W_i * Phi_i^{r'_i}``: ``W_i`` at the marked index and
  a uniform value other than ``W_i`` elsewhere.

P2 decrypts the permuted ``L`` vector: the single index that decrypts to 1 or
0 (rather than a random value) reveals the outcome of the oblivious
functionality F, from which P2 forms ``alpha``.  For ``u = v`` no index is
marked.

The printed algorithm marks the first difference with a chain ``H_i =
H_{i-1}^{r_i} * G_i``, ``Phi_i = H_i - 1``: ``l`` sequential full powers
per pair.  ``Phi_i`` here is the weighted prefix sum of the comparison of
Damgard, Geisler and Kroigaard ["Efficient and secure comparison for
on-line auctions", ACISP 2007]: homomorphic additions and one doubling
(``c * c``) per bit.  What P2 decrypts is distributed as before — ``W_t``
at the first difference ``t``, elsewhere ``W_i`` plus a uniform non-zero
multiple of a unit — so Section 4.3's view is unchanged.

P1 draws the difference masks ``(rhat_i, E(rhat_i))`` per round, not per
bit: ``pairs * l`` (and ``pairs`` ``Z = E(0)`` constants) for a
:meth:`SecureMinimum.run_batch` level, as one ``take_masks`` batch.

Of the six exponentiations counted per bit, four are the subtractions of
``W_i``, ``Gamma_i`` and ``G_i`` and cost one modular inversion per chunk
of pairs between them: ``E(u_i v_i)`` and ``Gamma_i``'s subtrahend are
negated as one ``neg_batch`` (``2 l`` per pair), and ``G_i``'s
``E(2 u_i v_i)^-1`` is the square of ``W_i``'s ``E(u_i v_i)^-1``.  The
fifth is ``Phi_i``'s doubling, a squaring; only ``Phi_i^{r'_i}`` is a
power, one ``scalar_mul_batch`` per chunk.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.paillier import Ciphertext
from repro.protocols.base import TwoPartyProtocol, traced_round
from repro.protocols.sm import SecureMultiplication

__all__ = ["SecureMinimum"]


class SecureMinimum(TwoPartyProtocol):
    """Two-party secure minimum of two encrypted bit-decomposed values."""

    name = "SMIN"

    P2_STEPS = {
        "SMIN.batch_gamma_and_l": "_p2_decide_alpha_batch",
    }

    def __init__(self, setting) -> None:
        super().__init__(setting)
        self._sm = SecureMultiplication(setting)

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
        executed as two rounds: every pair's per-bit SM products run through
        one batched SM invocation, then the Gamma/L round, in which P2
        decrypts all permuted L vectors with the vectorized CRT kernel.
        Each round is four messages — two half-batches in flight, SM's split
        by bit products and the Gamma/L round's by pairs — once it has
        :data:`~repro.protocols.base.PIPELINE_MIN_ITEMS` items, two below
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
        n = self.pk.n

        # ---- P1: every pair's coin and per-bit SM products ------------------
        f_flags = [bool(self.p1.rng.getrandbits(1)) for _ in pairs]
        sm_inputs: list[tuple[Ciphertext, Ciphertext]] = []
        for enc_u_bits, enc_v_bits in pairs:
            sm_inputs.extend(zip(enc_u_bits, enc_v_bits))
        products = self._sm.run_batch(sm_inputs)
        tasks = [
            (enc_u_bits, enc_v_bits, f_flags[index],
             products[index * bit_length:(index + 1) * bit_length])
            for index, (enc_u_bits, enc_v_bits) in enumerate(pairs)
        ]

        def build_gamma_and_l(chunk):
            # ---- P1: step 1 for every pair of the chunk ---------------------
            rhat_tuples = self.take_masks(len(chunk) * bit_length, "nonzero")
            enc_zeros = self.p1.encrypt_batch([0] * len(chunk))
            # Every subtrahend of the chunk, negated for one inversion: each
            # pair's E(u_i v_i) (inside W_i and, doubled, G_i), then the bits
            # each pair's Gamma_i subtracts.
            count = len(chunk) * bit_length
            negated = self.neg_batch(
                [enc_uv for *_, enc_uv_bits in chunk for enc_uv in enc_uv_bits]
                + [enc_bit for enc_u_bits, enc_v_bits, f_is_u_greater, _
                   in chunk
                   for enc_bit in (enc_u_bits if f_is_u_greater
                                   else enc_v_bits)])
            neg_uvs, neg_subtracted = negated[:count], negated[count:]
            w_vector, phi_vector, r_primes = [], [], []
            permuted_gammas, permutations_l = [], []
            states: list[tuple[list[int], list[int]]] = []
            for index, (enc_u_bits, enc_v_bits, f_is_u_greater,
                        _) in enumerate(chunk):
                bits = slice(index * bit_length, (index + 1) * bit_length)
                neg_uv = neg_uvs[bits]
                # F: u > v  ->  W_i = E(u_i (1 - v_i)),
                #               Gamma_i = E(v_i - u_i + rhat_i);
                # F: v > u  ->  the same with u and v exchanged.
                maximum_bits, other_bits = (
                    (enc_u_bits, enc_v_bits) if f_is_u_greater
                    else (enc_v_bits, enc_u_bits))
                w_vector.extend(self.pk.add_batch(list(maximum_bits), neg_uv))
                gamma_vector = self.pk.add_batch(
                    self.pk.add_batch(list(other_bits), neg_subtracted[bits]),
                    [enc_rhat for _, enc_rhat in rhat_tuples[bits]])
                # G_i = E(u_i XOR v_i) = E(u_i + v_i - 2 u_i v_i)
                g_vector = self.pk.add_batch(
                    self.pk.add_batch(list(enc_u_bits), list(enc_v_bits)),
                    self.pk.double_negated_batch(neg_uv))
                # Phi_i = E(g_i - 1 + 2 (z + sum_{j<i} g_j)) with Z = E(z = 0)
                # fresh: zero exactly at the first differing bit.
                prefixes = [enc_zeros[index]]
                for enc_g in g_vector[:-1]:
                    prefixes.append(prefixes[-1] + enc_g)
                phi_vector.extend(
                    self.add_plain(enc_phi, n - 1) for enc_phi in
                    self.pk.add_batch(g_vector,
                                      self.pk.scalar_mul_batch(prefixes, 2)))
                # the pair's draws in one order, however the round is split
                r_primes.extend(self.p1.random_nonzero()
                                for _ in range(bit_length))
                permutation_gamma = list(range(bit_length))
                permutation_l = list(range(bit_length))
                self.p1.rng.shuffle(permutation_gamma)
                self.p1.rng.shuffle(permutation_l)
                permuted_gammas.append(
                    [gamma_vector[j] for j in permutation_gamma])
                permutations_l.append(permutation_l)
                states.append(([rhat for rhat, _ in rhat_tuples[bits]],
                               permutation_gamma))
            # L_i = W_i * Phi_i^{r'_i}, the whole chunk as one batch
            l_vector = self.pk.add_batch(
                w_vector, self.pk.scalar_mul_batch(phi_vector, r_primes))
            payload = [
                [permuted_gamma,
                 [l_vector[index * bit_length + j] for j in permutation_l]]
                for index, (permuted_gamma, permutation_l)
                in enumerate(zip(permuted_gammas, permutations_l))]
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
            for index, (enc_u_bits, enc_v_bits, f_is_u_greater,
                        _) in enumerate(chunk):
                gamma_masks, permutation_gamma = states[index]
                unpermuted: list[Ciphertext | None] = [None] * bit_length
                for position, original_index in enumerate(permutation_gamma):
                    unpermuted[original_index] = received_m[index][position]
                # lambda_i = M~_i * E(alpha)^{N - rhat_i}
                lambdas = self.pk.add_batch(
                    unpermuted,
                    self.pk.scalar_mul_batch(
                        [received_alphas[index]] * bit_length,
                        [n - mask for mask in gamma_masks]),
                )
                base_bits = enc_u_bits if f_is_u_greater else enc_v_bits
                results.append(self.pk.add_batch(list(base_bits), lambdas))
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
        otherwise 0.  ``M'_i = Gamma'_i ^ alpha`` so that P1 later recovers
        ``alpha * (diff_i + rhat_i)`` without learning alpha.  The payload's
        shape — ``[Gamma', L']`` per pair, one bit length throughout — is
        checked first, so the per-pair windows of the flat decryption align.
        """
        received_payload = self.p2.receive(expected_tag="SMIN.batch_gamma_and_l")
        self.require(
            isinstance(received_payload, list)
            and all(isinstance(pair, list) and len(pair) == 2
                    for pair in received_payload),
            "malformed gamma-and-L batch")
        bit_length = self.require_cipher_rows(
            [row for pair in received_payload for row in pair],
            "gamma-and-L batch")
        flat_l = [cipher for _, permuted_l in received_payload
                  for cipher in permuted_l]
        decrypted_l = self.p2.decrypt_residue_batch(flat_l)
        alphas: list[int] = []
        m_primes: list[list[Ciphertext]] = []
        for index, (permuted_gamma, _) in enumerate(received_payload):
            window = decrypted_l[index * bit_length:(index + 1) * bit_length]
            alpha = 1 if any(value == 1 for value in window) else 0
            alphas.append(alpha)
            m_primes.append(self.pk.scalar_mul_batch(permuted_gamma, alpha))
        enc_alphas = self.p2.encrypt_batch(alphas)
        self.p2.send([m_primes, enc_alphas], tag="SMIN.batch_masked_minimums")
