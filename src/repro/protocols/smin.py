"""Secure Minimum (SMIN) — Algorithm 3's functionality, on encrypted integers.

P1 holds ``E(a)`` and ``E(b)`` with ``0 <= a, b < 2**L``; P2 holds the secret
key.  The protocol outputs ``E(min(a, b))`` to P1 while hiding ``a``, ``b``
*and which of the two is the minimum* from both parties.

The printed Algorithm 3 compares *bit vectors*, so SkNN_m had to
bit-decompose every distance (SBD, ``l`` rounds) before it could select one.
This implementation compares the integers themselves: the two-party DGK
comparison as improved by Veugen ["Improving the DGK comparison protocol",
IEEE WIFS 2012], followed by the masked compare-and-select of Bost, Popa, Tu
and Goldwasser ["Machine learning classification over encrypted data", NDSS
2015].  Algorithm 3's random functionality stays: P1's secret coin ``F``
orders each pair as ``(x, y)``, so the comparison bit P2 learns is uniform.
Per pair, in two rounds:

1. P1 sends ``E(z) = E(x) * E(y)^-1 * E(2**L + r)`` with ``r`` uniform in
   ``[0, N - 2**(L+1))``, so ``z`` never wraps.  P2 decrypts ``z`` and
   returns fresh encryptions of its bits ``z_L, ..., z_0`` (MSB first).
   Since ``x - y + 2**L`` lies in ``[1, 2**(L+1))``, its bit ``L`` is
   ``[x >= y]``, and with ``zhat = z mod 2**L``, ``rhat = r mod 2**L``::

       [x >= y] = z_L xor r_L xor [zhat < rhat]

2. P1 compares ``zhat`` (bit by bit, encrypted) with its own ``rhat`` by the
   weighted zero test of Damgard, Geisler and Kroigaard ["Efficient and
   secure comparison for on-line auctions", ACISP 2007] with weight 3: the
   marker ``P_1 = z_{L-1} - rhat_{L-1}``, ``P_{i+1} = 3 P_i + (z_i -
   rhat_i)`` (MSB first, plain additions and a cube) is 0 before the first
   bit ``t`` where the two differ, ``z_t - rhat_t = +-1`` at it and of
   absolute value at least 2 after it.  P1 draws a coin ``s`` in ``{+1,
   -1}`` and sends, per pair,

   * the ``L`` entries ``E(1 + r'_i (P_{i+1} + s))``, permuted: 1 exactly
     at ``t`` when ``z_t - rhat_t = -s``, uniform apart from 1 elsewhere;
   * ``E(z_L xor c)`` with ``c = r_L xor [s = -1]``: ``E(z_L)^(+-1)`` plus
     a plain ``c``;
   * ``E(x + rho_x)`` and ``E(y + rho_y)`` under fresh uniform masks.

   P2 sets ``delta' = [some entry decrypts to 1]`` and ``t = (z_L xor c)
   xor delta'``.  For ``x != y`` that is ``[x >= y]`` whatever ``s`` was
   (``s = -1`` tests ``zhat > rhat``, the complement, and ``c`` flips it
   back); on a tie no entry is 1 and ``t = [s = +1]``, either candidate
   being the minimum.  P2 returns the candidate ``t`` selects (``y`` for
   ``t = 1``) times a fresh ``E(0)``, and ``E(t)``.
3. P1 strips the selected mask: ``E(min) = E(v) * E(-rho_x) *
   E(t)^(rho_x - rho_y)``, one full power.

What each party sees.  P2 sees ``z``, statistically uniform exactly as SBD's
masked values are; ``z_L xor c``, uniform through ``r_L`` and ``s``; and
``delta'`` and ``t``, uniform for distinct values through ``s`` and ``F``.
On a tie ``delta' = 0`` — the same tie leak as the bit-level ``alpha``.  P1
sees only ciphertexts.  P2 also holds ``p`` and ``q``, so it can read the
Paillier randomness ``(c mod N)^(N^-1 mod phi(N))`` of any ciphertext it
decrypts; the entries' randomness would be ``rho(P_{i+1})^(r'_i)``, built
from P2's own bit encryptions, and would let it test guesses of ``rhat``.
So every ciphertext P2 decrypts carries its own fresh P1 factor: the mask's
encryption in ``E(z)``, one ``E(0)`` per entry and one on ``E(z_L xor
c)``.

The marker's non-zero ``P_{i+1} + s`` must be units for the entries to be
uniform: the protocol requires ``3**(L+1) < 2**(K/2 - 1)``, below either
prime of ``N`` (``L <= 38`` at K=128, ``L <= 79`` at K=256, ``L <= 159`` at
K=512; :meth:`SecureMinimum.marker_fits`).

Per pair P1 pays ``L + 4`` encryptions — the mask (one ``take_masks``
batch per chunk of round 1), ``L + 1`` zeros and the two selection masks
(one ``encrypt_batch`` and one ``take_masks`` batch per call, drawn while
P2 answers round 1) — and ``2L + 2`` exponentiations: the negation of
``y``, ``L - 1`` cubes (two multiplications each), the ``L`` entry powers,
the ``+-1`` and the final strip, ``L + 1`` of them full powers.  P2 pays
``L + 2`` decryptions and ``L + 3`` encryptions.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.paillier import Ciphertext
from repro.protocols.base import TwoPartyProtocol, traced_round
from repro.protocols.encoding import recompose_from_encrypted_bits

__all__ = ["SecureMinimum"]


class SecureMinimum(TwoPartyProtocol):
    """Two-party secure minimum of two encrypted integers."""

    name = "SMIN"

    P2_STEPS = {
        "SMIN.batch_masked_differences": "_p2_bits_of_masked_differences",
        "SMIN.batch_comparisons": "_p2_select_minimums",
    }

    @staticmethod
    def marker_fits(bit_length: int, key_size: int) -> bool:
        """Whether ``L``-bit values can be compared under a ``K``-bit key:
        ``3**(L+1) < 2**(K/2 - 1)``, so every non-zero ``P_{i+1} + s`` is a
        unit."""
        return 3 ** (bit_length + 1) < 1 << (key_size // 2 - 1)

    @traced_round("run")
    def run(self, enc_u: Ciphertext | Sequence[Ciphertext],
            enc_v: Ciphertext | Sequence[Ciphertext],
            bit_length: int | None = None) -> Ciphertext:
        """Compute ``E(min(u, v))`` — the one-pair case of :meth:`run_batch`.

        Args:
            enc_u, enc_v: ``E(u)`` and ``E(v)``, or their encrypted bit
                vectors (see :meth:`encrypted_integers`).
            bit_length: ``L`` with ``u, v < 2**L``; implied by bit vectors.
        """
        return self.run_batch([(enc_u, enc_v)], bit_length)[0]

    def encrypted_integers(self,
                           operands: Sequence[Ciphertext | Sequence[Ciphertext]],
                           bit_length: int | None = None
                           ) -> tuple[list[Ciphertext], int]:
        """``E(value)`` for every operand, and the operands' bit length ``L``.

        An operand is either ``E(value)`` — then ``bit_length`` must give
        ``L`` — or an encrypted bit vector (MSB first), which is recomposed
        here with ``L`` its length, so bit vectors and integers run the one
        comparison.
        """
        vectors = [operand for operand in operands
                   if not isinstance(operand, Ciphertext)]
        if not vectors:
            self.require(bit_length is not None and bit_length > 0,
                         "integer operands need a positive bit length")
            return list(operands), bit_length
        lengths = {len(bits) for bits in vectors}
        self.require(len(vectors) == len(operands) and len(lengths) == 1,
                     "all bit vectors must share one length")
        length = lengths.pop()
        self.require(length > 0, "bit vectors must be non-empty")
        self.require(bit_length in (None, length),
                     "bit length disagrees with the bit vectors")
        return [recompose_from_encrypted_bits(bits) for bits in operands], length

    @traced_round("run_batch", sized=True)
    def run_batch(self, pairs: Sequence[tuple[Ciphertext | Sequence[Ciphertext],
                                              Ciphertext | Sequence[Ciphertext]]],
                  bit_length: int | None = None) -> list[Ciphertext]:
        """Compute ``E(min(u_i, v_i))`` for a whole vector of pairs.

        The protocol's one implementation (:meth:`run` is the one-pair
        batch; per-pair operation counts do not depend on the batch size):
        two rounds, each through
        :meth:`~repro.protocols.base.TwoPartyProtocol.run_pipelined`, so
        four messages per round once the batch has
        :data:`~repro.protocols.base.PIPELINE_MIN_ITEMS` pairs, two below.
        Each pair keeps its own coins, masks and permutation.  SMIN_n's
        tournament levels call this with all pairs of a level.

        Args:
            pairs: ``(u, v)`` operands, all of one bit length ``L``.
            bit_length: ``L``; implied when the operands are bit vectors.

        Returns:
            ``E(min(u_i, v_i))`` per pair, in input order.
        """
        if not pairs:
            return []
        values, bit_length = self.encrypted_integers(
            [operand for pair in pairs for operand in pair], bit_length)
        self.require(self.marker_fits(bit_length, self.pk.key_size),
                     f"{bit_length}-bit values need 3^(L+1) < 2^(K/2-1) "
                     f"for the marker, K={self.pk.key_size}")
        n = self.pk.n
        top = 1 << bit_length

        # ---- P1: every pair's coin F orders it as (x, y) ---------------------
        tasks = [(values[2 * index], values[2 * index + 1])
                 if self.p1.rng.getrandbits(1)
                 else (values[2 * index + 1], values[2 * index])
                 for index in range(len(pairs))]

        def mask_differences(chunk):
            # ---- P1, round 1: E(z) = E(x - y + 2^L + r) -----------------------
            masks = self.take_masks(len(chunk), "sbd", sbd_upper=n - 2 * top)
            differences = self.pk.add_batch(
                [x for x, _ in chunk], self.neg_batch([y for _, y in chunk]))
            masked = self.pk.add_batch(differences, [c for _, c in masks])
            return ([bit_length, [self.add_plain(cipher, top)
                                  for cipher in masked]],
                    [r for r, _ in masks])

        def collect_bits(chunk, masks, reply):
            self.require(
                self.require_cipher_rows(reply, "difference-bits reply",
                                         len(chunk)) == bit_length + 1,
                "malformed difference-bits reply")
            return list(zip(masks, reply))

        fresh = []

        def draw_fresh_material():
            # ---- P1, while C2 answers round 1: what round 2 encrypts needs
            # nothing from it — L + 1 zeros per pair, the selection masks and
            # the masked candidates E(x + rho_x), E(y + rho_y).
            width = bit_length + 1
            zeros = self.p1.encrypt_batch([0] * (len(tasks) * width))
            selection_masks = self.take_masks(2 * len(tasks))
            candidates = self.pk.add_batch(
                [operand for pair in tasks for operand in pair],
                [c for _, c in selection_masks])
            fresh.extend(
                (zeros[index * width:(index + 1) * width],
                 (selection_masks[2 * index][0],
                  selection_masks[2 * index + 1][0]),
                 candidates[2 * index:2 * index + 2])
                for index in range(len(tasks)))

        def build_comparisons(chunk):
            # ---- P1, round 2: entries and E(z_L xor c) ----------------------
            markers, exponents, offsets, flips = [], [], [], []
            permutations = []
            for mask, bits, _, _, _ in chunk:
                sign = 1 if self.p1.rng.getrandbits(1) else -1
                marker = None
                for position, enc_bit in enumerate(bits[1:]):
                    # P_{i+1} = 3 P_i + (z_i - rhat_i), MSB first
                    if mask >> (bit_length - 1 - position) & 1:
                        enc_bit = enc_bit + (-1)
                    marker = enc_bit if marker is None else marker * 3 + enc_bit
                    markers.append(marker)
                    exponent = self.p1.random_nonzero()
                    exponents.append(exponent)
                    # 1 + r'(P + s) = r'P + (r's + 1)
                    offsets.append(exponent * sign + 1)
                permutation = list(range(bit_length))
                self.p1.rng.shuffle(permutation)
                permutations.append(permutation)
                flips.append((mask >> bit_length & 1) ^ (sign < 0))
            # every entry and every top bit under a fresh E(0) of its own
            entries = self.pk.add_batch(
                [self.add_plain(cipher, offset) for cipher, offset in zip(
                    self.pk.scalar_mul_batch(markers, exponents), offsets)],
                [zero for _, _, zeros, _, _ in chunk
                 for zero in zeros[:bit_length]])
            # E(z_L xor c) = E(z_L)^(1 - 2c) + c
            top_bits = self.pk.add_batch(
                [self.add_plain(cipher, flip) for cipher, flip in zip(
                    self.pk.scalar_mul_batch([bits[0] for _, bits, _, _, _
                                              in chunk],
                                             [1 - 2 * flip for flip in flips]),
                    flips)],
                [zeros[bit_length] for _, _, zeros, _, _ in chunk])
            payload = []
            for index, ((_, _, _, _, candidates), permutation) in enumerate(
                    zip(chunk, permutations)):
                row = entries[index * bit_length:(index + 1) * bit_length]
                payload.append([row[j] for j in permutation]
                               + [top_bits[index]] + candidates)
            return payload, [rhos for _, _, _, rhos, _ in chunk]

        def strip_selections(chunk, selection_masks, reply):
            # ---- P1, step 3: E(min) = E(v) E(-rho_x) E(t)^(rho_x - rho_y) ----
            self.require(
                self.require_cipher_rows(reply, "selected-minimum reply",
                                         len(chunk)) == 2,
                "malformed selected-minimum reply")
            corrections = self.pk.scalar_mul_batch(
                [enc_t for _, enc_t in reply],
                [(rho_x - rho_y) % n for rho_x, rho_y in selection_masks])
            return [self.add_plain(cipher, -rho_x) for cipher, (rho_x, _)
                    in zip(self.pk.add_batch([v for v, _ in reply],
                                             corrections), selection_masks)]

        # ---- P2 answers each round between the two, once per chunk ----------
        compared = self.run_pipelined(
            tasks, "SMIN.batch_masked_differences",
            "SMIN.batch_difference_bits", mask_differences, collect_bits,
            draw_fresh_material)
        return self.run_pipelined(
            [pair + material for pair, material in zip(compared, fresh)],
            "SMIN.batch_comparisons", "SMIN.batch_selected_minimums",
            build_comparisons, strip_selections)

    # -- P2 side -------------------------------------------------------------
    def _p2_bits_of_masked_differences(self) -> None:
        """Round 1: decrypt each masked difference ``z`` and return fresh
        encryptions of its ``L + 1`` low bits, MSB first.

        The frame is ``[L, [E(z), ...]]``; ``L`` is checked against the key
        (``z`` must fit below ``N`` with room for the mask) before anything is
        decrypted.
        """
        frame = self.p2.receive(expected_tag="SMIN.batch_masked_differences")
        self.require(isinstance(frame, list) and len(frame) == 2
                     and type(frame[0]) is int
                     and 0 < frame[0] < self.pk.n.bit_length() - 2
                     and isinstance(frame[1], list) and frame[1],
                     "malformed masked-difference batch")
        bit_length, masked = frame
        self.require_cipher_list(masked, len(masked),
                                 "masked-difference batch")
        values = self.p2.decrypt_residue_batch(masked)
        bits = self.p2.encrypt_batch(
            [value >> shift & 1 for value in values
             for shift in range(bit_length, -1, -1)])
        width = bit_length + 1
        self.p2.send([bits[start:start + width]
                      for start in range(0, len(bits), width)],
                     tag="SMIN.batch_difference_bits")

    def _p2_select_minimums(self) -> None:
        """Round 2: decide each pair's ``t`` and return the candidate it
        selects, times a fresh ``E(0)``, with ``E(t)``.

        A row is the ``L`` permuted entries, ``E(z_L xor c)`` and the two
        masked candidates; every row of the batch has one width, checked
        before anything is decrypted.  The entries and the top bit are
        decrypted in one batch; the candidates never are.
        """
        rows = self.p2.receive(expected_tag="SMIN.batch_comparisons")
        width = self.require_cipher_rows(rows, "comparison batch")
        self.require(width >= 4, "malformed comparison batch")
        tested = width - 2
        decrypted = self.p2.decrypt_residue_batch(
            [cipher for row in rows for cipher in row[:tested]])
        choices = []
        for index in range(len(rows)):
            values = decrypted[index * tested:(index + 1) * tested]
            self.require(values[-1] in (0, 1), "malformed comparison batch")
            choices.append(values[-1] ^ int(1 in values[:-1]))
        fresh = self.p2.encrypt_batch(choices + [0] * len(rows))
        selected = self.pk.add_batch(
            [row[tested + choice] for row, choice in zip(rows, choices)],
            fresh[len(rows):])
        self.p2.send([[cipher, enc_t] for cipher, enc_t
                      in zip(selected, fresh[:len(rows)])],
                     tag="SMIN.batch_selected_minimums")
